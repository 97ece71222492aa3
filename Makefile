# Convenience targets for the PKRU-Safe reproduction.

.PHONY: all build test check lint-globals lint-hotpath bench examples clean

all: build

build:
	dune build @all

test:
	dune runtest --force

# Everything CI runs: full build (all targets) + the complete test suite.
check: lint-globals lint-hotpath
	dune build @all
	dune runtest --force

# Library state lives on the instance that owns it (machine, heap,
# browser, gate), never in a top-level mutable definition.  Fails on any
# top-level ref / Hashtbl / Queue / Array / Bytes definition in lib/.
GLOBALS_RE := ^let [a-z_][A-Za-z0-9_]* *(: *[^=]+)?= *(ref|Hashtbl\.create|Queue\.create|Array\.make|Bytes\.create)\b

lint-globals:
	@if grep -rnE '$(GLOBALS_RE)' lib --include='*.ml'; then \
	  echo "lint-globals: top-level mutable state in lib/ (move it onto its owning instance)"; \
	  exit 1; \
	fi

# The clock tick (Eval.tick/charge) and the checked-access TLB hit
# (Machine.translate/read_le/write_le) must compile, in the
# default dev profile, to code with no caml_apply and no indirect call;
# the allocation, free, metadata-lookup and DOM-handle paths to code
# with no polymorphic hash or compare (the DOM's page build and sibling
# iteration: no Util.Int_table either); the script lexer's and HTML
# parser's byte loops, the DOM's page build and sibling iteration to
# code with no young-heap allocation.  See HACKING.md, "Hot paths".
lint-hotpath:
	@tools/lint-hotpath.sh

bench:
	dune exec bench/main.exe

bench-json:
	dune exec bench/main.exe -- --json bench-results

examples:
	dune exec examples/quickstart.exe
	dune exec examples/servo_like.exe
	dune exec examples/exploit_demo.exe
	dune exec examples/callback_ffi.exe
	dune exec examples/static_analysis.exe
	dune exec examples/stack_protection.exe

clean:
	dune clean
