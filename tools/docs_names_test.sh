#!/usr/bin/env bash
# Checks the code names that the docs cite against the code: every
# backticked `Type::member` in the given Markdown files must be declared in
# a src/ or tools/ file that also names Type.
#
#   docs_names_test.sh <source root> <doc.md>...
#
# A lower-case Type is a namespace (`sim::TransferCycles`, `dgc::sim`): some
# file naming it must declare the member anywhere. Any other Type is a class,
# struct or enum: the member must be declared inside its body or a base's
# body, or defined out of line as Type::member(...). `std::` names are not
# the project's and are skipped. Prints each unresolved name and a count;
# exits 1 if any.
set -uo pipefail
root=$1
shift

# A declaration of member $1 on one line: a function, field or constant
# after its type, an enumerator, or a nested class/struct/enum/namespace.
decl_regex() {
  echo "((class|struct|enum|namespace)[[:space:]]+([A-Za-z0-9_]+::)*$1([^A-Za-z0-9_]|\$))|((^|[[:space:]*&{,~])$1[[:space:]]*[({;=[,}])"
}

# True when a file in $3... declares member $2 inside the body of type $1.
declared_in_body() {
  local type=$1 member=$2
  shift 2
  awk -v decl="$(decl_regex "$member")" \
      -v head="(class|struct|enum)[[:space:]]+(class[[:space:]]+)?$type([[:space:]:{]|\$)" \
      -v call="(return|co_return|co_await|throw)[[:space:]]+$member[^A-Za-z0-9_]" '
    FNR == 1 { inside = 0 }
    {
      line = $0
      sub(/\/\/.*/, "", line)
      # A head that is not a forward declaration opens the body.
      if (!inside && line ~ head && (line ~ /{/ || line !~ /;[[:space:]]*$/)) {
        inside = 1; opened = 0
      }
      if (!inside) next
      if (!opened) {  # the body starts after the first "{"
        if (!sub(/^[^{]*{/, "", line)) next
        opened = 1; depth = 1
      }
      if (line ~ decl && line !~ call) found = 1
      depth += gsub(/{/, "{", line) - gsub(/}/, "}", line)
      if (depth <= 0) inside = 0
    }
    END { exit found ? 0 : 1 }' "$@"
}

resolves() {
  local type=$1 member=$2 files
  files=$(grep -rlw --include='*.h' --include='*.cpp' -- "$type" \
          "$root/src" "$root/tools")
  [ -n "$files" ] || return 1
  if [[ $type =~ ^[a-z] ]]; then
    grep -qE -- "$(decl_regex "$member")" $files
  else
    grep -qE -- "(^|[^A-Za-z0-9_])$type::$member[[:space:]]*\\(" $files ||
      declared_in_body "$type" "$member" $files && return 0
    # An inherited member: try each base the type is declared with.
    local base
    for base in $(grep -ohE "(class|struct)[[:space:]]+$type[[:space:]]*:[^{]*" \
                    $files | sed -E 's/^[^:]*://; s/(public|private|protected)//g; s/[,{]/ /g'); do
      [[ $base =~ ^[A-Z] ]] && resolves "$base" "$member" && return 0
    done
    return 1
  fi
}

checked=0
unresolved=0
while read -r ref; do
  type=${ref%%::*}
  member=${ref#*::}
  [ "$type" = std ] && continue
  checked=$((checked + 1))
  if ! resolves "$type" "$member"; then
    echo "unresolved: \`$ref\`"
    unresolved=$((unresolved + 1))
  fi
done < <(grep -ho '`[^`]*`' "$@" |
         grep -oE '[A-Za-z_][A-Za-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*' | sort -u)
echo "$unresolved of $checked references unresolved"
[ "$unresolved" -eq 0 ]
