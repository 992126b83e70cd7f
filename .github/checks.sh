#!/usr/bin/env bash
# The checks CI makes on the tree itself, one function each. The workflow step
# of the same name calls its check; run them all before a change lands, from
# the repository root:
#
#   bash .github/checks.sh                 # every check, each reported
#   bash .github/checks.sh varint          # one: format, test_patterns,
#                                          # unreachable, varint or doc_names
set -eo pipefail

# Format check: gofmt has nothing to change.
format() {
  out="$(gofmt -l .)"
  if [ -n "$out" ]; then
    echo "gofmt needs to be run on:" >&2
    echo "$out" >&2
    exit 1
  fi
}

# Test patterns name tests: go test -run passes when its pattern matches
# nothing, so a test deleted or renamed would drop out of a CI step unnoticed.
# Every name of every -run and -fuzz alternation in the workflow must match a
# test, fuzz target or example (go test -list) of a package its command names.
test_patterns() {
  status=0
  declare -A listed
  while IFS= read -r cmd; do
    patterns=$(grep -oE -- "-(run|fuzz) '[^']*'" <<<"$cmd" | sed -E "s/^-(run|fuzz) '(.*)'$/\2/" | grep -vx '\^\$' || true)
    [ -n "$patterns" ] || continue
    pkgs=$(grep -oE "( \.| \./[^ ]*)" <<<"$cmd")
    for pkg in $pkgs; do
      [ -n "${listed[$pkg]+x}" ] || listed[$pkg]=$(go test -list . "$pkg" | grep -vE '^(ok|\?|FAIL)[[:space:]]')
    done
    for name in ${patterns//|/ }; do
      found=0
      for pkg in $pkgs; do grep -qE -- "$name" <<<"${listed[$pkg]}" && found=1; done
      if [ $found = 0 ]; then
        echo "no test of$pkgs matches $name in: $cmd" >&2
        status=1
      fi
    done
  done < <(grep -v '^[[:space:]]*#' .github/workflows/ci.yml | grep -oE "go test( ([^ '&|;)\"]+|'[^']*'))*")
  exit $status
}

# No unreachable internal code: the linker judges what is dead. A function
# declared under internal/ that no command and no benchmark binary links must
# go, unless .github/unreachable-allow.txt lists it with the class of reason
# it stays. Inlining is off, so a function inlined into every caller still
# shows; generic instances, closures and method values are folded back onto
# the function that declares them. The symbol names are the toolchain's, so
# this runs on one Go version (1.24).
unreachable() {
  export LC_ALL=C
  allow=.github/unreachable-allow.txt
  out=$(mktemp -d)
  trap 'rm -rf "$out"' EXIT
  go build -gcflags=all=-l -o "$out/" ./cmd/...
  (cd bench && go build -gcflags=all=-l -o "$out/bench" .)
  for b in "$out"/*; do go tool nm "$b"; done \
    | sed -nE 's/^ *[0-9a-f]+ [Tt] flowzip\/internal\/(.*)$/\1/p' \
    | sed -E 's/\[.*\]//; s/\(\*?([^)]*)\)/\1/; s/-fm$//; s/-range[0-9]+.*$//; s/\.(func|gowrap|deferwrap)[0-9]+.*$//' \
    | sort -u > "$out/linked"
  go list -f '{{range .GoFiles}}{{$.ImportPath}} {{$.Dir}}/{{.}}{{"\n"}}{{end}}' ./internal/... \
    | while read -r pkg file; do
        sed -nE 's/^func \(([A-Za-z_0-9]+ )?\*?([A-Za-z_0-9]+)(\[[^]]*\])?\) ([A-Za-z_0-9]+)[[(].*/\2.\4/p; s/^func ([A-Za-z_0-9]+)[[(].*/\1/p' "$file" \
          | sed "s|^|${pkg#flowzip/internal/}.|"
      done | grep -v '\.init$' | sort -u > "$out/declared"
  comm -23 "$out/declared" "$out/linked" > "$out/unlinked"
  grep -vE '^(#|$)' "$allow" | awk '{print $1}' | sort > "$out/allowed"
  status=0
  if bad=$(grep -vE '^(#|$)' "$allow" | grep -vE '^[^ ]+ (reference|interface|test-helper)$'); then
    echo "$allow: want \"symbol class\" with class reference, interface or test-helper:" >&2
    echo "$bad" >&2
    status=1
  fi
  if dead=$(comm -23 "$out/unlinked" "$out/allowed" | grep .); then
    echo "declared under internal/, linked into no binary and not in $allow:" >&2
    echo "$dead" >&2
    status=1
  fi
  if stale=$(comm -13 "$out/unlinked" "$out/allowed" | grep .); then
    echo "listed in $allow but linked or no longer declared:" >&2
    echo "$stale" >&2
    status=1
  fi
  exit $status
}

# One varint codec: varint decoding belongs to internal/wire (encoders append
# with binary.AppendUvarint); internal/baseline keeps the VJ and Peuhkuri
# reference formats as written.
varint() {
  ! grep -rnE 'binary\.(PutUvarint|ReadUvarint|Uvarint)\(' --include='*.go' --exclude='*_test.go' . | grep -vE '^\./internal/(wire|baseline)/'
}

# Doc names: a Test, Benchmark or Fuzz name that README.md, ARCHITECTURE.md or
# the verify skill quotes must name a function of a _test.go file in the tree,
# so a deleted or renamed test cannot leave its documentation behind. A name
# followed by * (TestGolden*) is a prefix.
doc_names() {
  docs="README.md ARCHITECTURE.md .claude/skills/verify/SKILL.md"
  defined=$(grep -rhoE --include='*_test.go' --exclude-dir=.bench_build '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]+' . | cut -d' ' -f2 | sort -u)
  status=0
  for ref in $(grep -ohE '\b(Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*\*?' $docs | sort -u); do
    name=${ref%\*}
    if [ "$name" = "$ref" ]; then pat="^$name\$"; else pat="^$name"; fi
    if ! grep -qE "$pat" <<<"$defined"; then
      echo "$ref, named in $(grep -lwF "$name" $docs | xargs), is no test, benchmark or fuzz target in the tree" >&2
      status=1
    fi
  done
  exit $status
}

checks="format test_patterns unreachable varint doc_names"
if [ $# -gt 0 ]; then
  case " $checks " in
    *" $1 "*) "$1"; exit ;;
    *) echo "usage: $0 [$checks]" >&2; exit 2 ;;
  esac
fi
status=0
for check in $checks; do
  if bash "$0" "$check"; then
    echo "ok   $check"
  else
    echo "FAIL $check"
    status=1
  fi
done
exit $status
