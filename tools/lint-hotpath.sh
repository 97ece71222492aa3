#!/bin/sh
# Hot-path lint, five rules.
#
# 1. The clock tick, the checked-access TLB hit, generic and
#    width-specialised, and the allocation entry (Env.alloc) must compile
#    to code with no unknown call.
#
# The build compiles without -opaque (dune-workspace selects the release
# profile), so a call into another module is a known call the compiler
# may inline: Eval.charge is Sim.Cpu.charge, inlined.  Under -opaque
# (`--profile dev`, or a checkout without dune-workspace) every such call
# is unknown: caml_applyN, or an indirect `call *%reg` through the
# callee's closure, never inlined; Env.alloc alone then holds six
# caml_apply calls, on a path taken per simulated allocation.  This
# script disassembles the default objects and fails if any of these
# functions contains a caml_apply relocation or an indirect call, so
# neither a refactor nor a build change can silently bring the calls
# back (the hit paths keep their rare cases in out-of-line helpers).
#
# 2. The allocation, free, fault-lookup and DOM-handle paths, the
#    profile's fault record, the checked multi-byte copies, the AST
#    tier's variable reads, stores and declarations (static-frame slots
#    and the cached global slot; a global's first-bind probe of the
#    name table is out of line), the tick's slow path (Eval.tick_slow:
#    fuel exhaustion and the yield point), and the engine's NaN-boxed slot
#    accessors must not hash or compare polymorphically: no relocation to caml_hash, to the
#    polymorphic comparisons (caml_compare, caml_equal, ...), to the
#    polymorphic Stdlib.min/max/compare that call them (Int.min and
#    Int.max compile in line), or to the
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
#    page-build path and its sibling iteration, the AST tier's
#    variable access (static-frame and global slots), the tick's slow
#    path, the engine's slot store
#    (Value.write_slot: a slot is two int halves, never a boxed float or
#    int64) and the width-specialised checked accesses (an unboxed
#    Int32/Int64 between the page and an int) must not allocate on the
#    young heap:
#    no `sub $N,%r15`, the bump of the minor-heap pointer.
#    (caml_call_gc is no signal: OCaml 5 poll points reference it too.)
#    A byte is an int, -1 past the end, never a `char option`; a scan
#    runs on a local index; a walk keeps the chain on a host stack, not
#    in a list or a closure.
#
# 4. The AST tier's node closures tick in line: engine__Eval.o has no
#    call to Eval.tick (a relocation to camlEngine__Eval.tick_<digits>).
#    The tick is one countdown of the fuel to a floor (0, or the fuel at
#    the next yield point); exhaustion and the yield are Eval.tick_slow,
#    out of line (rules 2 and 3 find it as a function of its own).  A
#    tick that stops being inlinable -- its fuel error back in line, say
#    -- becomes a call per AST node.
#
# 5. The width-specialised checked accesses (Machine.read_u8/u32/u56/u64,
#    write_u8/u32/u56/u64) probe the TLB in line: no relocation to the
#    general Machine.translate (camlSim__Machine.translate_<digits>; the
#    out-of-line miss path, translate_miss, is allowed).  They are also
#    call-free (rule 1) and allocation-free (rule 3).
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

# The polymorphic hash and compares, and the Stdlib functions that call them.
poly='caml_hash|caml_compare|caml_(not)?equal|caml_(less|greater)(than|equal)|camlStdlib\.(min|max|compare)_[0-9]+|camlStdlib__(Hashtbl|Map)'

# check_hash OBJECT MODULE FUNCTION...: no polymorphic hash or compare.
check_hash() {
  forbid "hashes or compares polymorphically (key it by an int)" "$poly" "$@"
}

machine_o="$objs/machine/.sim.objs/native/sim__Machine.o"
# The width-specialised checked accesses: the TLB hit in line.
fast_access="read_u8 read_u32 read_u56 read_u64 write_u8 write_u32 write_u56 write_u64"
check "$objs/engine/.engine.objs/native/engine__Eval.o" Engine__Eval tick charge
# shellcheck disable=SC2086
check "$machine_o" Sim__Machine translate read_le write_le $fast_access
check "$objs/core/.pkru_safe.objs/native/pkru_safe__Env.o" Pkru_safe__Env alloc
call_free=$checked

check_hash "$machine_o" Sim__Machine memset write_string read_bytes read_to_buffer
check_hash "$objs/core/.pkru_safe.objs/native/pkru_safe__Env.o" Pkru_safe__Env alloc site_of
check_hash "$objs/engine/.engine.objs/native/engine__Value.o" Engine__Value malloc grow \
  read_slot write_slot
check_hash "$objs/browser/.browser.objs/native/browser__Dom.o" Browser__Dom addr
check_hash "$objs/runtime/.runtime.objs/native/runtime__Metadata.o" Runtime__Metadata \
  lookup floor_index on_alloc insert last_page
check_hash "$objs/runtime/.runtime.objs/native/runtime__Profile.o" Runtime__Profile record
check_hash "$objs/allocators/.allocators.objs/native/allocators__Dlmalloc_model.o" \
  Allocators__Dlmalloc_model alloc free find_fit scan_bin walk_bin next_bin take \
  insert_free unlink_free is_live set_live clear_live bin_index try_resize
check_hash "$objs/allocators/.allocators.objs/native/allocators__Jemalloc_model.o" \
  Allocators__Jemalloc_model alloc free alloc_small alloc_large current_run \
  find_free_slot first_clear large_pages run_of_addr
check_hash "$objs/util/.util.objs/native/util__Int_table.o" Util__Int_table \
  get slot replace remove close_hole
# The AST tier's variable access: static-frame slots and the cached
# global slot, no name hashing; and the tick's slow path.
eval_static="static_lookup static_assign global_lookup global_assign declare_slot"
# shellcheck disable=SC2086
check_hash "$objs/engine/.engine.objs/native/engine__Eval.o" Engine__Eval $eval_static tick_slow

# check_dom OBJECT MODULE FUNCTION...: rule 2 without Util.Int_table.
check_dom() {
  forbid "hashes per node (index it)" "$poly|camlUtil__Int_table" "$@"
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
check_alloc "$objs/engine/.engine.objs/native/engine__Eval.o" Engine__Eval $eval_static tick_slow
check_alloc "$objs/engine/.engine.objs/native/engine__Value.o" Engine__Value write_slot
# shellcheck disable=SC2086
check_alloc "$machine_o" Sim__Machine $fast_access
alloc_free=$((checked - call_free - hash_free))

# Rule 5: the width-specialised accesses probe the TLB in line, with no
# call to the general Machine.translate.
# shellcheck disable=SC2086
forbid "calls Machine.translate (keep the TLB probe in line)" \
  'R_X86_64_[A-Z0-9_]+[[:space:]]+camlSim__Machine\.translate_[0-9]+' "$machine_o" Sim__Machine \
  $fast_access

# Rule 4: a relocation line naming tick_<digits> (not tick_hooks_<digits>
# or tick_slow_<digits>).
eval_o="$objs/engine/.engine.objs/native/engine__Eval.o"
tick_calls=$(objdump -dr --no-show-raw-insn "$eval_o" |
  grep -E 'R_X86_64_[A-Z0-9_]+[[:space:]]+camlEngine__Eval\.tick_[0-9]+' || true)
if [ -n "$tick_calls" ]; then
  echo "lint-hotpath: $eval_o calls Eval.tick (keep it inlinable, its slow path out of line):"
  printf '%s\n' "$tick_calls"
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "lint-hotpath: ok ($call_free functions call-free, $hash_free free of polymorphic hashing," \
    "$alloc_free allocation-free, $((checked - call_free - hash_free - alloc_free))" \
    "probing the TLB in line, Eval.tick inlined, its slow path out of line)"
fi
exit "$status"
