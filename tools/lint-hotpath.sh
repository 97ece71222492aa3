#!/bin/sh
# Hot-path lint, three rules.
#
# 1. The clock tick and the checked-access TLB hit must compile to code
#    with no unknown call.
#
# A dev build (dune's default profile) compiles every module -opaque, so
# a call into another module is an unknown call: caml_applyN, or an
# indirect `call *%reg` through the callee's closure, never inlined.
# The functions below are written to avoid that (their slow paths live
# in out-of-line helpers).  This script disassembles the dev-profile
# objects and fails if any of them contains a caml_apply relocation or
# an indirect call, so a refactor cannot silently bring the calls back.
#
# 2. The allocation, free, fault-lookup and DOM-handle paths, and the AST
#    tier's variable reads, stores and declarations, must not hash or
#    compare polymorphically: no relocation to caml_hash, to the
#    polymorphic comparisons (caml_compare, caml_equal, ...), or to the
#    generic Stdlib Hashtbl/Map, whose lookups call them.  Those paths
#    key their indices by integers (Util.Int_table, dense arrays,
#    bitmaps, slot indices fixed at compile time); the helpers they call in their own module are checked
#    too, as is the table itself.  The DOM's page-build path and its
#    sibling iteration go further: no Util.Int_table either, since a
#    node is found by index (the per-page slot arrays, whose table is
#    probed only out of line, once per page).
#
# 3. The front ends' byte loops (the script lexer's peek/advance/trivia
#    skipping, the HTML parser's name/whitespace/text scans), the DOM's
#    page-build path and its sibling iteration, and the AST tier's
#    static-frame variable access must not allocate on the young heap:
#    no `sub $N,%r15`, the bump of the minor-heap pointer.
#    (caml_call_gc is no signal: OCaml 5 poll points reference it too.)
#    A byte is an int, -1 past the end, never a `char option`; a scan
#    runs on a local index; a walk keeps the chain on a host stack, not
#    in a list or a closure.
#
# Usage: tools/lint-hotpath.sh   (from the repository root; `make lint-hotpath`)
set -eu

dune build @all
objs=_build/default/lib
status=0
checked=0

# body OBJECT MODULE FUNCTION: the function's disassembly with relocations.
body() {
  objdump -dr --no-show-raw-insn "$1" |
    awk -v re="^[0-9a-f]+ <caml${2}(\\\\.|__)${3}_[0-9]+>:\$" \
      '$0 ~ re { on = 1; print; next } on && NF == 0 { on = 0 } on'
}

# forbid WHY PATTERN OBJECT MODULE FUNCTION...
forbid() {
  why=$1
  pattern=$2
  obj=$3
  mod=$4
  shift 4
  for fn in "$@"; do
    checked=$((checked + 1))
    code=$(body "$obj" "$mod" "$fn")
    if [ -z "$code" ]; then
      echo "lint-hotpath: no function $mod.$fn in $obj"
      status=1
      continue
    fi
    bad=$(printf '%s\n' "$code" | grep -E "$pattern" || true)
    if [ -n "$bad" ]; then
      echo "lint-hotpath: $mod.$fn $why:"
      printf '%s\n' "$bad"
      status=1
    fi
  done
}

# check OBJECT MODULE FUNCTION...: no unknown call.
check() {
  forbid "makes an unknown call (keep it off the hot path)" 'caml_apply|call[q]? +\*' "$@"
}

# check_alloc OBJECT MODULE FUNCTION...: no young-heap allocation.
check_alloc() {
  forbid "allocates on the young heap (no option, tuple, list or closure here)" \
    'sub +\$0x[0-9a-f]+,%r15' "$@"
}

# check_hash OBJECT MODULE FUNCTION...: no polymorphic hash or compare.
check_hash() {
  forbid "hashes or compares polymorphically (key it by an int)" \
    'caml_hash|caml_compare|caml_(not)?equal|caml_(less|greater)(than|equal)|camlStdlib__(Hashtbl|Map)' \
    "$@"
}

check "$objs/engine/.engine.objs/native/engine__Eval.o" Engine__Eval tick charge
check "$objs/machine/.sim.objs/native/sim__Machine.o" Sim__Machine translate read_le write_le
call_free=$checked

check_hash "$objs/core/.pkru_safe.objs/native/pkru_safe__Env.o" Pkru_safe__Env alloc site_of
check_hash "$objs/engine/.engine.objs/native/engine__Value.o" Engine__Value malloc grow
check_hash "$objs/browser/.browser.objs/native/browser__Dom.o" Browser__Dom addr
check_hash "$objs/runtime/.runtime.objs/native/runtime__Metadata.o" Runtime__Metadata \
  lookup floor_index
check_hash "$objs/allocators/.allocators.objs/native/allocators__Dlmalloc_model.o" \
  Allocators__Dlmalloc_model alloc free find_fit scan_bin walk_bin next_bin take \
  insert_free unlink_free is_live set_live clear_live
check_hash "$objs/allocators/.allocators.objs/native/allocators__Jemalloc_model.o" \
  Allocators__Jemalloc_model alloc free alloc_small alloc_large current_run \
  find_free_slot first_clear large_pages run_of_addr
check_hash "$objs/util/.util.objs/native/util__Int_table.o" Util__Int_table \
  get slot replace remove close_hole
# The AST tier's variable access: static-frame slots, no name hashing.
eval_static="static_lookup static_assign declare_slot"
# shellcheck disable=SC2086
check_hash "$objs/engine/.engine.objs/native/engine__Eval.o" Engine__Eval $eval_static

# check_dom OBJECT MODULE FUNCTION...: rule 2 without Util.Int_table.
check_dom() {
  forbid "hashes per node (index it)" \
    'caml_hash|caml_compare|caml_(not)?equal|caml_(less|greater)(than|equal)|camlStdlib__(Hashtbl|Map)|camlUtil__Int_table' \
    "$@"
}

# The DOM's page-build path (what Browser.build_trees calls per node) and
# its sibling iteration.
dom_build="alloc_node set_slot node_at create_element create_text write_text set_attribute
  set_attribute_at alloc_value find_attr find_attr_from intern find_name probe_name hash_name
  append_child check_hierarchy push_chain fold_children"
# shellcheck disable=SC2086
check_dom "$objs/browser/.browser.objs/native/browser__Dom.o" Browser__Dom $dom_build
hash_free=$((checked - call_free))

check_alloc "$objs/engine/.engine.objs/native/engine__Lexer.o" Engine__Lexer \
  peek peek2 advance skip_trivia to_eol to_close
check_alloc "$objs/browser/.browser.objs/native/browser__Html.o" Browser__Html peek skip_ws \
  name_end ws_end find_byte to_quote is_blank
# shellcheck disable=SC2086
check_alloc "$objs/browser/.browser.objs/native/browser__Dom.o" Browser__Dom $dom_build
# shellcheck disable=SC2086
check_alloc "$objs/engine/.engine.objs/native/engine__Eval.o" Engine__Eval $eval_static

if [ "$status" -eq 0 ]; then
  echo "lint-hotpath: ok ($call_free functions call-free, $hash_free free of polymorphic hashing," \
    "$((checked - call_free - hash_free)) allocation-free)"
fi
exit "$status"
