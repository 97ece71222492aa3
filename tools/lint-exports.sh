#!/bin/sh
# Export lint: every value a lib/ interface exports has a user outside
# its own module, and every optional argument of an export a caller
# outside its module that supplies it.
#
# An export is a top-level `val` of a lib/**/*.mli, say
# lib/browser/dom.mli.  Its users are the implementations under lib/
# bin/ bench/ perfbench/ examples/ -- the product -- other than its own
# dom.ml, whose typed trees name it: tools/lint_exports reads the .cmti
# and .cmt files dune writes (`dune build @check`) and resolves every
# value path (opens, the library wrappers and local module aliases
# included), so a word in a comment or a local of the same name is no
# user.  Tests do not count: a value only tests reach is either a test
# oracle, listed with its reason in tools/exports-allowlist.txt, or a
# path the product never takes, which goes.
#
# An optional argument [?label] of an export is used when an application
# of the export in the product, outside its module, supplies it; an
# omitted argument (the type checker's [None] at a ghost location) is
# not.  A test-only knob is listed as <interface>:<value>?<label> with
# its reason -- a reference the product is compared against, a cheap
# reach of a product behaviour, or part of the .ir input language -- or
# goes.
#
# Fails on:
#   - an export with no product user, or an optional argument no product
#     caller supplies, that is not on the allowlist;
#   - a stale allowlist entry: one that names no export or optional
#     argument, has a product user, or gives no reason.
#
# On success it prints the counts, e.g.
#   lint-exports: ok (N exports, A allowlisted; M optional arguments, B allowlisted)
#
# Usage: tools/lint-exports.sh   (from the repository root; `make lint-exports`)
set -eu

dune build @check ./tools/lint_exports/lint_exports.exe
./_build/default/tools/lint_exports/lint_exports.exe tools/exports-allowlist.txt _build/default
