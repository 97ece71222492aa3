#!/bin/sh
# Hot-path lint: the clock tick and the checked-access TLB hit must
# compile to code with no unknown call.
#
# A dev build (dune's default profile) compiles every module -opaque, so
# a call into another module is an unknown call: caml_applyN, or an
# indirect `call *%reg` through the callee's closure, never inlined.
# The functions below are written to avoid that (their slow paths live
# in out-of-line helpers).  This script disassembles the dev-profile
# objects and fails if any of them contains a caml_apply relocation or
# an indirect call, so a refactor cannot silently bring the calls back.
#
# Usage: tools/lint-hotpath.sh   (from the repository root; `make lint-hotpath`)
set -eu

dune build @all
objs=_build/default/lib
status=0

# check OBJECT MODULE FUNCTION...
check() {
  obj=$1
  mod=$2
  shift 2
  for fn in "$@"; do
    body=$(objdump -dr --no-show-raw-insn "$obj" |
      awk -v re="^[0-9a-f]+ <caml${mod}(\\\\.|__)${fn}_[0-9]+>:\$" \
        '$0 ~ re { on = 1; print; next } on && NF == 0 { on = 0 } on')
    if [ -z "$body" ]; then
      echo "lint-hotpath: no function $mod.$fn in $obj"
      status=1
      continue
    fi
    bad=$(printf '%s\n' "$body" | grep -E 'caml_apply|call[q]? +\*' || true)
    if [ -n "$bad" ]; then
      echo "lint-hotpath: $mod.$fn makes an unknown call (keep it off the hot path):"
      printf '%s\n' "$bad"
      status=1
    fi
  done
}

check "$objs/engine/.engine.objs/native/engine__Eval.o" Engine__Eval tick charge
check "$objs/machine/.sim.objs/native/sim__Machine.o" Sim__Machine translate read_le write_le slot_page

if [ "$status" -eq 0 ]; then echo "lint-hotpath: ok (6 functions call-free)"; fi
exit "$status"
