# Convenience targets for the PKRU-Safe reproduction.

.PHONY: all build test check lint-globals lint-hotpath lint-exports bench examples clean

all: build

build:
	dune build @all

test:
	dune runtest --force

# Everything CI runs: full build (all targets) + the complete test suite.
check: lint-globals lint-hotpath lint-exports
	dune build @all
	dune runtest --force

# Library state lives on the instance that owns it (machine, heap,
# browser, gate), never in a top-level mutable definition: lib/ code runs
# on several domains at once (Fleet.run's session pool), so nothing may be
# process-wide.  Fails on any top-level ref / Hashtbl / Queue / Array /
# Bytes / Buffer / lazy / Atomic / Domain.DLS key definition in lib/, and
# on any use of the global Random state.
GLOBALS_RE := ^let [a-z_][A-Za-z0-9_]* *(: *[^=]+)?= *(ref|Hashtbl\.create|Queue\.create|Array\.make|Array\.init|Bytes\.create|Buffer\.create|lazy|Atomic\.make|Domain\.DLS\.new_key)\b
RANDOM_RE := \bRandom\.[a-z]

lint-globals:
	@if grep -rnE '$(GLOBALS_RE)' lib --include='*.ml'; then \
	  echo "lint-globals: top-level mutable state in lib/ (move it onto its owning instance)"; \
	  exit 1; \
	fi
	@if grep -rnE '$(RANDOM_RE)' lib --include='*.ml'; then \
	  echo "lint-globals: the global Random state in lib/ (use a Util.Rng owned by an instance)"; \
	  exit 1; \
	fi

# The clock tick (Eval.tick/charge), the checked-access TLB hit
# (Machine.translate/read_le/write_le and the width entries) and the
# allocation entry (Env.alloc) must compile, in the default build
# (release profile, no -opaque: see dune-workspace), to code with no
# caml_apply and no indirect call: the calls they make into other
# modules are known and, where marked, inlined.  A build under -opaque
# (a checkout without dune-workspace) fails here, naming each function.
# No AST node may call Eval.tick (engine__Eval.o: no relocation to it,
# so every tick is inlined); the allocation, free, metadata-lookup
# and DOM-handle paths, the engine's NaN-boxed slot accessors
# (Value.read_slot/write_slot), the AST tier's static-frame variable
# access and the tick's out-of-line slow path (Eval.tick_slow) to code
# with no polymorphic hash or compare (the DOM's page build and sibling
# iteration: no Util.Int_table either); the script lexer's and HTML
# parser's byte loops, the DOM's page build and sibling iteration, the
# AST tier's static-frame variable access, Eval.tick_slow and the slot
# store (Value.write_slot) to code with no young-heap allocation.  See
# HACKING.md, "Hot paths".
lint-hotpath:
	@tools/lint-hotpath.sh

# Every value a lib/ interface exports has a user outside its own module
# in lib/ bin/ bench/ perfbench/ examples/ -- a value path in the typed
# trees dune writes (.cmt), read by tools/lint_exports -- and every
# optional argument of an export a caller there that supplies it, or is
# allowlisted with a reason in tools/exports-allowlist.txt
# (<interface>:<value> or <interface>:<value>?<label>); a stale
# allowlist entry fails too.  See HACKING.md, "Exports".
lint-exports:
	@tools/lint-exports.sh

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
