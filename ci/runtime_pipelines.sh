#!/usr/bin/env bash
# The documented CLI pipelines, run with the `traceprod` and `python` found on
# PATH; the first one that misbehaves stops the script with a nonzero exit.
#
#   bash ci/runtime_pipelines.sh
set -eo pipefail

err=$(mktemp)
doc=$(mktemp)
dual=$(mktemp)
trap 'rm -f "$err" "$doc" "$dual"' EXIT

python -c "import sys, traceprod.cli; assert 'scipy' not in sys.modules, 'traceprod.cli imports scipy'"
# a stage imports only what its subcommand runs: generate loads families, and neither decompose nor extend
python -X importtime -m traceprod.cli generate --family mn_chain --n 3 --m 3 2>"$err" >/dev/null
grep -q 'traceprod\.families$' "$err"
if grep -q -e 'traceprod\.decompose$' -e 'traceprod\.extend$' "$err"; then exit 1; fi
# weighted loads its own module, and none of decompose's recoveries
traceprod generate --family pn_chain --n 3 --m 3 >"$doc"
python -X importtime -m traceprod.cli weighted --maps "$doc" --alpha 2,2,2 --beta 2,2,2 2>"$err" >/dev/null
grep -q 'traceprod\.weighted$' "$err"
if grep -q 'traceprod\.decompose$' "$err"; then exit 1; fi
# and the choices of --family, which come from families, are still listed in full
traceprod generate --help \
  | python -c "import sys; from traceprod import FAMILIES; assert '{' + ','.join(sorted(FAMILIES)) + '}' in sys.stdin.read()"
# options are built for the first argument's subcommand only, as argparse accepts no subcommand behind a
# leading `--`: exit 2 and nothing on stdout
status=0
out=$(traceprod -- generate --family mn_chain --n 2 --m 3 2>"$err") || status=$?
test "$status" -eq 2
test -z "$out"
grep -q "invalid choice: '--'" "$err"
# orjson writes each transfer, respelled where it differs from repr (0.00001 and 1e16 for repr's 1e-05
# and 1e+16): a generate document and a dualize output, both holding such numbers, are json.dumps's text
traceprod generate --family pn_pair --n 12 --m 2 >"$doc"
traceprod dualize --maps "$doc" >"$dual"
for text in "$doc" "$dual"; do
  grep -qE '[0-9]e(\+|-0)[0-9]' "$text"
  python -c 'import json, sys; text = open(sys.argv[1]).read(); assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"' "$text"
done
traceprod generate --family sym_odd --n 4 --m 3 | traceprod check --maps -
traceprod generate --family pn_pair --n 4 --m 2 | traceprod dualize --maps - | traceprod check --maps -
# dualize reads the trace Gram matrix off the basis terms: diagonal, symmetric and full spans over both fields
for args in "diag_pair --n 4 --m 2" "sym_even --field real --n 4 --m 2" "mn_chain --field real --n 3 --m 3" "sym_odd --n 3 --m 3"; do
  # shellcheck disable=SC2086 # $args holds several generate options
  traceprod generate --family $args | traceprod dualize --maps - | traceprod check --maps -
done
traceprod generate --family diag_chain --n 4 --m 3 | traceprod check --maps - --mode randomized --trials 64
# --space redirects the samples to the definite cone, which spans the maps' Hermitian domain
traceprod generate --family herm_odd --n 3 --m 3 | traceprod check --maps - --space PosDef --mode randomized --trials 64
# the realisation paths beside the pipelines above: Hadamard multipliers and rank-one frame blocks written directly, one Hermitian side scaled five times
for args in "hadamard --n 3 --m 2" "rank_one_frame --n 3 --m 2" "herm_odd --n 3 --m 5"; do
  # shellcheck disable=SC2086 # $args holds several generate options
  traceprod generate --family $args | traceprod check --maps -
done
# a complex symmetric span, realised from the adjoint images and rebuilt side by side
traceprod generate --family sym_even --n 3 --m 4 | traceprod decompose --maps -
traceprod generate --family sym_even --field real --n 4 --m 4 | traceprod check --maps - --mode randomized --trials 64
# 100**3 basis tuples are the cap: the default check runs the whole basis grid, in runs of slot-1 elements
traceprod generate --family mn_chain --n 10 --m 3 | traceprod check --maps - >"$doc"
grep -q '"mode":"exhaustive"' "$doc"
grep -q '"trials":1000000' "$doc"
# 144**3 basis tuples exceed 10**6, so the default check samples a grid on a full space
traceprod generate --family mn_chain --n 12 --m 3 | traceprod check --maps -
# and it must fail (exit 1) once one transfer entry moves by 1e-6
status=0
traceprod generate --family mn_chain --n 12 --m 3 \
  | python -c "import json, sys; d = json.load(sys.stdin); d['maps'][0]['transfer']['data'][0][0] += 1e-6; json.dump(d, sys.stdout)" \
  | traceprod check --maps - || status=$?
test "$status" -eq 1
traceprod generate --family mn_chain --n 4 --m 3 | traceprod decompose --maps -
# an option left out takes the library's default: the same bytes as with decompose's defaults spelled out
traceprod generate --family herm_odd --n 4 --m 3 >"$doc"
plain=$(traceprod decompose --maps "$doc")
spelled=$(traceprod decompose --maps "$doc" --family auto --tol 1e-7)
test "$plain" = "$spelled"
traceprod generate --family pn_chain --field real --n 4 --m 3 | traceprod decompose --maps -
traceprod generate --family sym_odd --field real --n 4 --m 3 | traceprod decompose --maps -
# a unitary (herm_odd), a scalar product (herm_even), a bare pair and diagonal scalings certify the rebuild
traceprod generate --family herm_odd --n 4 --m 3 | traceprod decompose --maps -
traceprod generate --family herm_even --n 4 --m 4 | traceprod decompose --maps -
traceprod generate --family pn_pair --n 4 --m 2 | traceprod decompose --maps -
traceprod generate --family diag_chain --n 4 --m 3 | traceprod decompose --maps -
# "auto" routes by the forms each decompose family returns: a real definite pair is a symmetric-span SymEven
traceprod generate --family pn_chain --field real --n 3 --m 2 | traceprod decompose --maps - | grep -q '"form":"SymEven"'
# a Hadamard pair has no decompose family: full-space pairs are refused by mn_chain's length rule, exit 2;
# and a scalar product that leaves double range (herm_even at m = 20000) is an input error with no numpy warning
status=0
traceprod generate --family hadamard --n 3 --m 2 | traceprod decompose --maps - >/dev/null 2>"$err" || status=$?
test "$status" -eq 2
grep -q "chains on full matrix spaces need at least 3 maps" "$err"
status=0
traceprod generate --family herm_even --n 1 --m 20000 >/dev/null 2>"$err" || status=$?
test "$status" -eq 2
if grep -q -e Traceback -e RuntimeWarning "$err"; then exit 1; fi
# pn_pair's branch is read off one skew basis image: seed 0 draws the transpose branch, seed 1 the direct one
for case in "0 True" "1 False"; do
  read -r seed flag <<<"$case"
  traceprod generate --family pn_pair --n 4 --m 2 --seed "$seed" >"$doc"
  traceprod decompose --maps "$doc" \
    | python -c "import json, sys; g = json.load(open(sys.argv[1])); d = json.load(sys.stdin); assert g['form']['params']['transpose'] is d['form']['params']['transpose'] is $flag" "$doc"
done
# f_2 of a diag_pair moved by 1e-6 is no longer f_1's partner: the identity check passes inside the rebuild,
# which runs on and refuses it by its full miss, exit 1 and no traceback
status=0
traceprod generate --family diag_pair --n 4 --m 2 \
  | python -c "import json, sys; d = json.load(sys.stdin); d['maps'][1]['transfer']['data'][0][0] += 1e-6; json.dump(d, sys.stdout)" \
  | traceprod decompose --maps - 2>"$err" || status=$?
test "$status" -eq 1
grep -q "rebuilds the maps only to" "$err"
if grep -q Traceback "$err"; then exit 1; fi
# at n = 16 a side spans two rebuild blocks: f_1 moved by 1e-6 fails the identity check that its first block
# calls for, exit 1 and no traceback
status=0
traceprod generate --family mn_chain --n 16 --m 3 \
  | python -c "import json, sys; d = json.load(sys.stdin); d['maps'][0]['transfer']['data'][0][0] += 1e-6; json.dump(d, sys.stdout)" \
  | traceprod decompose --maps - 2>"$err" || status=$?
test "$status" -eq 1
grep -q "maps do not satisfy the trace-product identity" "$err"
if grep -q Traceback "$err"; then exit 1; fi
# one entry moved by 1e-3 in the map that decompose reads the conjugator off (f_1 of
# every family): the identity check refuses the tuple, exit 1 and no traceback
for case in "0 mn_chain --n 8 --m 3" "0 sym_even --field real --n 8 --m 4" "0 herm_odd --n 8 --m 3" "0 pn_pair --n 8 --m 2"; do
  read -r index args <<<"$case"
  status=0
  # shellcheck disable=SC2086 # $args holds several generate options
  traceprod generate --family $args \
    | python -c "import json, sys; d = json.load(sys.stdin); d['maps'][$index]['transfer']['data'][0][0] += 1e-3; json.dump(d, sys.stdout)" \
    | traceprod decompose --maps - 2>"$err" || status=$?
  test "$status" -eq 1
  grep -q "maps do not satisfy the trace-product identity" "$err"
  if grep -q Traceback "$err"; then exit 1; fi
done
# HermEven with a congruence M of condition number 1e4, which from_canonical accepts: f_1(I) = M*M reads
# 1e8, and the recovery only reads it, so the rebuild certifies the tuple without the precheck
python -c 'import json, numpy as np; from traceprod import HermEven, SpaceTag, from_canonical; from traceprod.jsonio import encode_maps
space = SpaceTag("Hermitian", "complex", 4)
M = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0] @ np.diag([1.0, 1.0, 1.0, 1e4])
print(json.dumps(encode_maps(space, from_canonical(HermEven(M, (1.0,) * 4), space))))' \
  | traceprod decompose --maps - | grep -q '"precheck_ran":false'
# the command line leaves --tol to the library, whose rule refuses a negative one: exit 2, one
# InvalidParameterError document and no traceback
status=0
traceprod generate --family mn_chain --n 2 --m 3 >"$doc"
out=$(traceprod check --maps "$doc" --tol=-1 2>"$err") || status=$?
test "$status" -eq 2
test "$(printf '%s\n' "$out" | wc -l)" -eq 1
printf '%s\n' "$out" | grep -q '"code":"InvalidParameterError"'
if grep -q Traceback "$err"; then exit 1; fi
# a singular map has no trace dual: exit 2 and no traceback
status=0
python -c 'import json, numpy as np; from traceprod import LinMap, SpaceTag; from traceprod.jsonio import encode_linmap
space = SpaceTag("FullMatrix", "complex", 2)
print(json.dumps([encode_linmap(LinMap(space, space, np.diag([1.0, 0.0, 0.0, 0.0])))]))' \
  | traceprod dualize --maps - 2>"$err" || status=$?
test "$status" -eq 2
if grep -q Traceback "$err"; then exit 1; fi
# the trace pairing of a diagonal map of 1-norm condition number 1e10 is above dualize's limit 1e9 at the
# default tol: exit 2, no traceback, and stderr names the norm
status=0
python -c 'import json, numpy as np; from traceprod import LinMap, SpaceTag; from traceprod.jsonio import encode_linmap
space = SpaceTag("Diagonal", "real", 2)
print(json.dumps([encode_linmap(LinMap(space, space, np.diag([1.0, 1e10])))]))' \
  | traceprod dualize --maps - 2>"$err" || status=$?
test "$status" -eq 2
grep -q "1-norm condition number" "$err"
if grep -q Traceback "$err"; then exit 1; fi
# a document whose "space" is not what its maps act on is an input error: exit 2 and no traceback
for command in decompose dualize; do
  status=0
  traceprod generate --family mn_chain --n 8 --m 3 \
    | python -c "import json, sys; d = json.load(sys.stdin); d['space'] = {'kind': 'Hermitian', 'field': 'real', 'n': 3}; json.dump(d, sys.stdout)" \
    | traceprod "$command" --maps - 2>"$err" || status=$?
  test "$status" -eq 2
  if grep -q Traceback "$err"; then exit 1; fi
done
traceprod generate --family pn_chain --n 4 --m 3 | traceprod weighted --maps - --alpha 2,2,2 --beta 2,2,2
# an exponent list that starts with a negative number takes the = spelling
traceprod generate --family pn_chain --n 3 --m 3 --seed 0 | traceprod weighted --maps - --alpha=-1,-1,-1 --beta=-1,-1,-1
# beta = 0 leaves the reduced identity B = A^beta undefined: exit 2 and no traceback
status=0
traceprod generate --family pn_chain --n 4 --m 3 \
  | traceprod weighted --maps - --alpha 2,2,2 --beta 0,2,2 2>"$err" || status=$?
test "$status" -eq 2
if grep -q Traceback "$err"; then exit 1; fi
# an integer power takes products once a factorisation finds its inputs definite; an mn_chain map sends
# definite matrices outside the cone, so the power is refused: exit 2, the PositivityError document, no traceback
status=0
traceprod generate --family mn_chain --n 4 --m 3 \
  | traceprod weighted --maps - --alpha 2,2,2 --beta 1,1,1 >"$doc" 2>"$err" || status=$?
test "$status" -eq 2
grep -q '"code":"PositivityError"' "$doc"
grep -q "matrix power 2.0 needs positive definite inputs (min eig " "$err"
if grep -q Traceback "$err"; then exit 1; fi
# a transfer scaled by 1.7e308 overflows its images: at a power that takes an eigendecomposition, a matrix with an
# infinite entry has a NaN power, so the check fails (exit 1) with an infinite residual and no traceback
traceprod generate --family pn_chain --n 3 --m 3 --seed 0 \
  | python -c "import json, sys; d = json.load(sys.stdin); t = d['maps'][0]['transfer']; t['data'] = [[1.7e308 * x for x in e] for e in t['data']]; json.dump(d, sys.stdout)" \
  >"$doc"
for alpha in 2.5,2,2 0.5,2,2 -1,2,2; do
  status=0
  report=$(traceprod weighted --maps "$doc" --alpha="$alpha" --beta 1,1,1 --trials 20 2>"$err") || status=$?
  test "$status" -eq 1
  printf '%s\n' "$report" | python -c "import json, sys; [line] = sys.stdin; assert json.loads(line)['max_residual'] is None"
  grep -q "weighted identity fails: max residual inf" "$err"
  if grep -q Traceback "$err"; then exit 1; fi
done
# each slot of the weighted check samples its own map's cone: identity maps on complex Hermitian and
# real symmetric n = 3 pass in either order, and a complex diagonal domain holds no such cone (exit 2)
maps_doc='import json, sys; from traceprod import SpaceTag, identity_map; from traceprod.jsonio import encode_linmap
print(json.dumps([encode_linmap(identity_map(SpaceTag(*s.split(":"), 3))) for s in sys.argv[1:]]))'
for pair in "Hermitian:complex Symmetric:real" "Symmetric:real Hermitian:complex"; do
  # shellcheck disable=SC2086 # $pair holds two spaces
  python -c "$maps_doc" $pair | traceprod weighted --maps - --alpha 1,1 --beta 1,1
done
status=0
python -c "$maps_doc" Hermitian:complex Diagonal:complex \
  | traceprod weighted --maps - --alpha 1,1 --beta 1,1 2>"$err" || status=$?
test "$status" -eq 2
if grep -q Traceback "$err"; then exit 1; fi
# the target rank n^2 = 9 is above the bound k^2 = 4 on either field
for field in complex real; do
  cert=$(traceprod certify --n 3 --k 2 --field "$field")
  printf '%s\n' "$cert" | grep -q '"gram_rhs_rank":9'
  printf '%s\n' "$cert" | grep -q '"certifies_impossibility":true'
  # the first pair reaches the bound k^2 = 25, so the default 20 trials stop where one trial does
  traceprod certify --n 6 --k 5 --field "$field" >"$doc"
  traceprod certify --n 6 --k 5 --field "$field" --trials 1 | cmp -s - "$doc"
done
# a size numpy refuses to allocate is an input error: exit 2 and no traceback
status=0
traceprod certify --n 100000 --k 1 >/dev/null 2>"$err" || status=$?
test "$status" -eq 2
if grep -q Traceback "$err"; then exit 1; fi
# 10**12 maps whose transfers cannot fit in physical memory are refused before any sampling: exit 2 at once
status=0
timeout 10 traceprod generate --family mn_chain --n 3 --m 1000000000000 >/dev/null 2>"$err" || status=$?
test "$status" -eq 2
if grep -q Traceback "$err"; then exit 1; fi
# a length that no form of the family admits is an input error: exit 2, one InvalidParameterError document
# and no traceback
for case in "mn_chain 2" "herm_odd 4" "herm_even 3" "pn_pair 3" "pn_chain 1" "sym_odd 2" "sym_even 3" \
  "diag_pair 3" "diag_chain 2" "hadamard 3" "rank_one_frame 3" "nonextendable 2"; do
  read -r family m <<<"$case"
  status=0
  traceprod generate --family "$family" --n 3 --m "$m" >"$doc" 2>"$err" || status=$?
  test "$status" -eq 2
  python -c "import json, sys; assert json.load(open(sys.argv[1]))['error']['code'] == 'InvalidParameterError'" "$doc"
  if grep -q Traceback "$err"; then exit 1; fi
done
# the corner pair of the non-extendable triple preserves Hermitian matrices, so extend takes the complexify route
traceprod generate --family nonextendable --n 2 --m 3 \
  | python -c "import json, sys; d = json.load(sys.stdin); d['maps'] = d['maps'][:2]; json.dump(d, sys.stdout)" \
  | traceprod extend --maps - | traceprod check --maps -
# a failing identity must exit 1; a `!`-negated pipeline would not trip `set -e`
status=0
traceprod generate --family pn_chain --n 4 --m 3 | traceprod weighted --maps - --alpha 2,0.5,3 --beta 2,0.5,3 || status=$?
test "$status" -eq 1
# a reader that closes the pipe early gets exit 2 and no traceback
status=0
traceprod generate --family mn_chain --n 12 --m 3 2>"$err" | head -c 100 >/dev/null || status=$?
test "$status" -eq 2
if grep -q Traceback "$err"; then exit 1; fi
# a document nested 5000 lists deep is an input error: exit 2 and no traceback
for command in check decompose; do
  status=0
  python -c 'print("[" * 5000 + "]" * 5000)' | traceprod "$command" --maps - 2>"$err" || status=$?
  test "$status" -eq 2
  if grep -q Traceback "$err"; then exit 1; fi
done
echo "runtime pipelines passed"
