#!/bin/sh
# Export lint: every value a lib/ interface exports has a user outside
# its own module.
#
# An export is a `val NAME` in a lib/**/*.mli, say lib/browser/dom.mli.
# Its users are the .ml files under lib/ bin/ bench/ perfbench/
# examples/ -- the product -- other than its own dom.ml, that contain
# both NAME and the module's name (Dom) as whole words: no code outside
# a module reaches its values without naming it.  Tests do not count: a
# value only tests reach is either a test oracle, listed with its reason
# in tools/exports-allowlist.txt, or a path the product never takes,
# which goes.  A word match over-counts users (a local of the same name
# counts too), so the lint finds a lower bound on the dead surface,
# never a false alarm.
#
# Fails on:
#   - an export with no product user that is not on the allowlist;
#   - a stale allowlist entry: one that names no export, has a product
#     user, or gives no reason.
#
# Usage: tools/lint-exports.sh   (from the repository root; `make lint-exports`)
set -eu

allow=tools/exports-allowlist.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# "lib/dir/mod.mli NAME", one line per exported value.
find lib -name '*.mli' | sort | while read -r mli; do
  sed -nE "s/^[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_']*).*/\\1/p" "$mli" |
    sed "s|^|$mli |"
done >"$tmp/exports"

# "FILE:WORD", one line per distinct word of each product source file.
grep -rowE "[A-Za-z_][A-Za-z0-9_']*" --include='*.ml' lib bin bench perfbench examples |
  sort -u >"$tmp/words"

awk -v allow="$allow" '
  FILENAME == allow {
    if ($0 ~ /^[[:space:]]*(#|$)/) next
    entry = $1
    reason = $0
    sub(/^[[:space:]]*[^[:space:]]+[[:space:]]*/, "", reason)
    listed[entry] = reason
    order[++n] = entry
    next
  }
  FILENAME ~ /words$/ {
    i = index($0, ":")
    file = substr($0, 1, i - 1)
    word = substr($0, i + 1)
    users[word] = users[word] " " file
    has[file, word] = 1
    next
  }
  {
    own = $1
    sub(/\.mli$/, ".ml", own)
    mod = $1
    sub(/.*\//, "", mod)
    sub(/\.mli$/, "", mod)
    mod = toupper(substr(mod, 1, 1)) substr(mod, 2)
    key = $1 ":" $2
    exported[key] = 1
    used = 0
    m = split(users[$2], files, " ")
    for (k = 1; k <= m; k++) if (files[k] != own && (files[k], mod) in has) used = 1
    if (used) product[key] = 1
    else if (!(key in listed)) {
      print "lint-exports: " key ": no user outside its module (delete it, or allowlist it with a reason)"
      bad++
    }
    total++
  }
  END {
    for (k = 1; k <= n; k++) {
      e = order[k]
      if (!(e in exported)) {
        print "lint-exports: stale allowlist entry " e ": no such export"
        bad++
      } else if (e in product) {
        print "lint-exports: stale allowlist entry " e ": the product uses it now"
        bad++
      } else if (listed[e] == "") {
        print "lint-exports: allowlist entry " e " gives no reason"
        bad++
      }
    }
    if (bad) exit 1
    printf "lint-exports: ok (%d exports, %d allowlisted with no product user)\n", total, n
  }
' "$allow" "$tmp/words" "$tmp/exports"
