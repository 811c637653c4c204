"""The pinned runs of the `lambdaset` CLI. A `PINNED` run exits 0 and
prints the stdout of a recorded sha256, which its manifest's
`output_digest` repeats; a `REFUSED` one exits 1 with an empty stdout and
one recorded `error:` line. Either may read stdin. Adding either is one
row, and no two rows run the same arguments on the same stdin.

tests/test_cli.py checks every row in process, a pinned one from cold
memo tables and again warm. It hands each pinned payload to
`bench/checks.py`, which validates it against its command's schema and
replays its claims exactly with `bench/exact.py`. Four commands are left
out: `cantor-ds` and `pieces` have no check yet, and the `thickness`
check needs the gap file's alpha and assumes 128-bit rounding, so their
payloads are validated against the schema alone; `svg-gaps` prints a
drawing. Run this file (it imports only the standard library) to replay
every row through the `lambdaset` script on PATH, under any interpreter
the package is installed into: 10 s for a pinned run, 2 s for a refusal,
and exit 1 on any mismatch.

    python tests/pinned.py
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from typing import NamedTuple


def middle_alpha_gaps(alpha: Fraction, levels: int,
                      hull=(Fraction(0), Fraction(1))) -> str:
    """The `thickness --gaps` document of the middle-alpha Cantor set on
    hull: 2^levels - 1 removals, level by level."""
    side = (1 - alpha) / 2
    components, gaps = [hull], []
    for _ in range(levels):
        nxt = []
        for lo, hi in components:
            a, b = lo + side * (hi - lo), hi - side * (hi - lo)
            gaps.append([str(a), str(b)])
            nxt += [(lo, a), (b, hi)]
        components = nxt
    return json.dumps({"hull": [str(v) for v in hull], "gaps": gaps})


class Pinned(NamedTuple):
    """`lambdaset` with these space-separated arguments exits 0 and prints
    the stdout whose sha256 is digest, reading stdin if it is given."""

    command: str
    digest: str
    stdin: str | None = None


PINNED = [
    Pinned("cantor-ds --x 1/3 --ell 2 --kmax 4 --qmax 2",
           "f505a2792a94462d6069166738dc21176d75a70ac7e6cb7040bb07dc4f5c998d"),
    Pinned("svg-gaps --x 1/3 --ell 1 --kmax 3",
           "a9e09de10e5c15082a6d31e271e3d791703d06ba06ae09db42a360c28894ef7a"),
    Pinned("svg-gaps --x 1/4 --ell 2 --kmax 2 --qmax 0",
           "d3ac04798052103837d664ed8bef1226aefb6b58cd29ebb1e4947f084f0958e7"),
    Pinned("thickness-cl --x 1/4 --ell 1 --kmax 5 --qmax 2",
           "5641b95f5f959a1fec8130a6dc46f17a689d621d73bf010cc1c1b88be796bb2c"),
    Pinned("thickness-cl --x 2/7 --ell 2 --kmax 4 --qmax 2",
           "ef185c514439de622db502c067d6208d29fc3c27c34e56dfba520de19c6e8083"),
    Pinned("verify --x 1/3 --trials 20 --seed 3",
           "80ee43cc7e2b0f75d8cd66787b8bdf6dd587465e8685f74bed771d8ccfb121c4"),
    Pinned("verify --x 2/7 --trials 20 --seed 3",
           "548d20d43afb5fc40ca372210ca5caf415de261f96ba6bd310303e898eba84c5"),
    Pinned("verify --x 1/4 --trials 20 --seed 3",
           "7b861b9075735fe908410863606ec6a6117eea4e0c22c2b69fd9b8b06f20fbaf"),
    # ledgers at the coarse and fine precisions of the benchmark's covers:
    # every switch entry printed from integer cells
    Pinned("verify --x 1/3 --trials 50 --seed 7 --bits 96 --width-bits 48",
           "0fa736210e9796b8568fd7664e0ca6ac5171bbc211a7a1113f55326dcc9fbc53"),
    Pinned("verify --x 1/4 --trials 50 --seed 7 --bits 176 --width-bits 112",
           "caf192d8ea6b2f833600949a3eb3b515ec765032c5d691cabee36d3653393a1f"),
    Pinned("common --targets 1/3 --depth 9",
           "db4ead4f709aef021c172182c9d26f9b03602a8f57765693367d2116977c346b"),
    Pinned("common --targets 2/7 --depth 9",
           "f19cf39d137c36f35e16a8ff6b691952977f86bd1b8aefb810a21b1e213c82a3"),
    Pinned("common --targets 1/3,1/4 --depth 3",
           "c2382cb4af9f73ee704ed027fa2d7bf3a4ab536a88a3f806be430084da6a2b9a"),
    Pinned("common --targets 1/3,1/4 --depth 8",
           "fe96310366e309305587deef8cf85ecd774a43badd25ffc423c8b221af4691fb"),
    # one run per greedy outcome: member, rejected at step 551, unresolved
    Pinned("code --x 11759701296083149/16837617944622401 --lambda 7/17",
           "c258370b2298d6f8216bce8c8574c339865e50c63dce32f28d6be574dfe1eb1c"),
    Pinned("code --x 153/250 --lambda 185/371 --max-steps 600",
           "fb84d80aa27ccff97c4e27fb04d83d904c9285731cbd1d28804220e008a49b19"),
    Pinned("code --x 153/250 --lambda 185/371 --max-steps 500",
           "5a4038cbc57973771eea31254df20617696f452faef6c073c3da999c162aaff7"),
    # period 2052
    Pinned("expansion --x 1/2053",
           "7d5ad63ad86e85dd838d07a856af9001a38395552ce98998ebd59558406c65f2"),
    # dyadic targets, where 0 1^inf has the exact root x, in each use
    Pinned("cover --x 1/4 --depth 6",
           "660e6f1bf08241a902a2997ccd03f238396aac760f92fbcbcefadb9e0f2da962"),
    Pinned("gaps --x 5/16 --depth 7 --bits 64 --width-bits 40",
           "bd9414a89498d4f193075155669bb639f1ace3346f536036b2fa3330b164723f"),
    Pinned("pieces --x 1/3 --k 5",
           "6f9b50c004a1a76c715c7f843cae3d842eaec5008253463ba6b88a63020e497a"),
    Pinned("intersect --targets 1/4,5/16 --depth 6",
           "077a0d46b94281d7d63e2eadca60c2a1c52337be0b49a62124013d879aad04e3"),
    # slopes and errors summed with math.fsum, the same on every interpreter
    # (with `sum` the second's error lost a digit on 3.10 and 3.11)
    Pinned("dim --x 3/7 --center 13/28 --radius 729/28000 --eps-min-exp 4 "
           "--eps-max-exp 6",
           "f4443b19b4c44031bb1b6634f28f04a4f79c9c01e7fa1b1165c88b0e739945ac"),
    Pinned("dim --x 1/3 --center 445551/945473 --radius 10064/813097 "
           "--eps-min-exp 5 --eps-max-exp 7",
           "2e9582db71a4e671c7fc5bccb0843310a57cdff386ff0ed6fecf38e5c531b63c"),
    # middle-alpha gap files, the third with dyadic ends down to 2^-31
    Pinned("thickness --gaps -",
           "843e23d5c60c7a97946037043e03de59b6145df0884ce040770f067186e63c56",
           middle_alpha_gaps(Fraction(19, 50), 10)),
    Pinned("thickness --gaps - --bits 32",
           "0987c5363f8d031b988651687d90e00dfa15fd4a2e94e28edff87b9b56c4579a",
           middle_alpha_gaps(Fraction(19, 50), 10)),
    Pinned("thickness --gaps -",
           "db83ccd03fff2edab18096b057ff7041b8295a73eab8baaae970ce679549a76f",
           middle_alpha_gaps(Fraction(3, 8), 7, (Fraction(-3, 8), 5))),
    # the middle-third set's first 2047 removals
    Pinned("thickness --gaps -",
           "bceaaed9954c382fc2b3d22c610a54c06dfee1e31281f28bdaa22282f0ea1a75",
           middle_alpha_gaps(Fraction(1, 3), 11)),
    # p/q, integers (a JSON number among them), a decimal, an exponent and
    # negated values: the digest is that of the Fraction path
    Pinned("thickness --gaps -",
           "59d49e8f4ebedb5bf22aa4ede3d72c9bf3dac6d02e0c7474b72b70818fa924a5",
           '{"hull": ["-1", 2], "gaps": [["1/3", "2/3"], ["-1/2", "1e-1"], '
           '[0.25, "3/10"], [1, "3/2"]]}'),
    Pinned("cover --x 1/3 --depth 4",
           "c780ce32e99713278147dde0b21900079ac24dc28273dc55ef4dc159d7581eaf"),
    # the largest precision and width, other grid origins, degree-200 root
    # polynomials, and solved cells through a defining sequence's grid and
    # back to decimals
    Pinned("cover --x 1/4 --depth 1 --bits 16384 --width-bits 16384",
           "11740d051770bc2c365088993981cfb22e9c64c9f816ed412889f2f5d48d6274"),
    Pinned("cover --x 1/3 --depth 8 --bits 200 --width-bits 150",
           "9384c587b3c5577fa2675784bfe2fb93a0403eaf3a52ced1a74313218cd9e416"),
    Pinned("pieces --x 1/3 --k 100 --width-bits 640",
           "613ea5948af9a40f4f87308e74a5fe994739f372ed26b60f28f67c01f350cc6e"),
    Pinned("cantor-ds --x 2/7 --ell 3 --kmax 4 --qmax 2 --bits 160 "
           "--width-bits 100",
           "c8ce2a6fab883e121e7ccb0fc29121b21f293be3fd25b9d6d24cea8abe31e31b"),
    # the root x of 0 1^inf: the grid's low end for x exact at 32 bits (no
    # solve), a level-40 grid point for x = 2^-2 + 2^-42, rounded to 1/4
    Pinned("cover --x 12345/65536 --depth 4 --bits 32 --width-bits 60",
           "8f602a84022fb0966ca6312983b510d3afb5461b77305eff4cedd6b3f960c70d"),
    Pinned("cover --x 1099511627777/4398046511104 --depth 4 --bits 32 "
           "--width-bits 60",
           "56f1750c7d349de7b19b33555be482cdcd2796922521f7f53c4dff7fe9513fe3"),
    # 3/4 mirrors to 1/4, case B, and prints 1/4's long seeded ledger
    Pinned("verify --x 3/4 --trials 200 --seed 5",
           "d4e4f5c59a2e42e39e3e8fb576c5ee27fa9f72f07e6cfdf7886b1717d7a60776"),
    # long seeded ledgers: many rejected draws, and each branch of the
    # switch_upper minimum (1/3 takes both, 3/10 always the second)
    Pinned("verify --x 1/3 --trials 200 --seed 5",
           "4a32ab530d54a60ea0ff22d3e434b8349996116d45a20a0a70dceb10f5d85ce7"),
    Pinned("verify --x 3/10 --trials 200 --seed 5",
           "f077f4978ad96235d12e491f4d8095fcf65400dcc62d0c2b62fa6122a13dddf3"),
    # a multi-target search that builds covers would take over 30 s
    Pinned("common --targets 1/3,1/4 --depth 16",
           "f28a83fe43f177e6e2ef8a09605e9dd518eeedf18fb92065c3bf0a185c4a4d07"),
    # 9641 probes up to q = 436, all but 1/3's ended by a prime of p in a
    # state's denominator
    Pinned("common --targets 1/3 --depth 33",
           "84cbd9e1ff081b184bfc596d76b64ee3c69d250e592af0155991480129cbc37c"),
    # box counts on fine grids, clipped to a window with non-dyadic ends
    Pinned("dim --x 1/5 --center 9/20 --radius 1/20 --eps-min-exp 6 "
           "--eps-max-exp 9 --bits 96 --width-bits 48",
           "ed7e24e7ffb1229407677d6a8703b37a981798a2adc4aa68d6bc51af4817e960"),
    # three covers intersected, their cells on the grids 2^-145 and 2^-143
    Pinned("intersect --targets 1/5,1/3,2/7 --depth 8 --bits 96 --width-bits "
           "48",
           "5de8753295c591e9e3009d7a8bc5e0edc07a4275f4a47f7f8830a2b130328091"),
    # deep tails: cells at 2^-200, piece 32 at 2^-400, and degree-130 root
    # polynomials at 2^-800, where a double's first guess is weakest
    Pinned("thickness-cl --x 1/3 --ell 16 --kmax 6 --qmax 3 --bits 248 "
           "--width-bits 200",
           "0d231f133d0e140a6f39bf962a4fd5eb040a49f1f938d714ccae3ce4a7c1e2c2"),
    Pinned("thickness-cl --x 1/3 --ell 32 --kmax 6 --qmax 3 --width-bits 400",
           "6d8ecb216ea9d06f02ed896ddfdce2045a8193e4e2d12078d4105e7c5367983f"),
    Pinned("thickness-cl --x 1/3 --ell 64 --kmax 6 --qmax 3 --width-bits 800",
           "bef05db226a98b212af45114ea26b65163908db066f34d9dc0ce483435e64efb"),
    # a small run of each JSON command: `pi`, a decimal `dim` center, and
    # two grid sizes, which leave the slope no error (`stderr` is null)
    Pinned("code --x 1/4 --lambda 1/2",
           "4344bab2b5c6136d1c3e41fc2bcf0a58575b7a49086d657e6f69262cad656d4a"),
    Pinned("pi --seq (01) --lambda 1/2",
           "e6f933dc9295f9bc27bf434c92cbd48fc0f3d13778425944780d8ef1fd3d64d8"),
    Pinned("expansion --x 1/3",
           "3c1df1ecab37b3aa8db2fd4ff0244c4380049a0a55ace79974c381d9d1fd5b4c"),
    Pinned("cover --x 1/4 --depth 3",
           "e72fe28a49ea106ab10784015a76b37c36d91cd0482249a45c19fb7225bdf19c"),
    Pinned("gaps --x 1/4 --depth 3",
           "46d965a8766cff6845d1d302d245012b6d55de505a52e79beba4138375636c69"),
    Pinned("dim --x 1/3 --center 0.46 --radius 1/16 --eps-min-exp 7 "
           "--eps-max-exp 9 --bits 64 --width-bits 20",
           "429761723d6f2d36c0f1cd4e41f7dcd2caeb05feaff0c5829125aed9c90e1e53"),
    Pinned("dim --x 1/3 --center 9/20 --radius 1/20 --eps-min-exp 8 "
           "--eps-max-exp 9",
           "435cd74ce02494b7a7d9ac806fbaf3c131c8f0e152d78e2b58d01a015ffeb31c"),
    Pinned("pieces --x 1/4 --k 1",
           "92d61922ff97d8494e88058ae3df99a1fec20789a51b603975721726a0bd343d"),
    Pinned("cantor-ds --x 1/3 --ell 2 --kmax 2 --qmax 1",
           "b4185e5006fa2bff8d34d324e5b4e678b1c4172034bdc45097d03bc5e2c5d2c8"),
    Pinned("thickness-cl --x 1/3 --ell 2 --kmax 2 --qmax 1",
           "6e423e01d8dd0aa02bebe678ce880911b648a2fa3b44a3e10546a58b51a6918a"),
    Pinned("verify --x 1/4 --trials 2",
           "dcd21d38e676fbeb2446e4faabfc04a107bec68bac18f6cec31f868cf4266b80"),
    Pinned("intersect --targets 1/3,1/4 --depth 3",
           "e0f41f5e812ef649f380ae9ab3562b2f198cbf4b052fdf647f3a09e98f73343d"),
    # a 2^-100 grid at 40 bits: only exact signs decide every midpoint
    Pinned("cover --x 1/3 --depth 2 --bits 40 --width-bits 100",
           "40f8fa969298cacdd576de16b0ae761ff4b27d4ef28b3913a14e1a5ee843bec0"),
    # a target 1/100 from 1/2, alone and beside one near 0, and three targets
    Pinned("cover --x 49/100 --depth 4",
           "849c0fcea1c6744515d3815d58b4e07ba772150755d187c29aa9cb9190c0abd4"),
    Pinned("common --targets 49/100,1/100 --depth 3",
           "43d1dfc0af671605982752c84243314a0735b84b183196833770eabf055b8151"),
    Pinned("common --targets 1/3,1/4,2/7 --depth 4",
           "792c7fd51d1d483ef56df1a6cc552ded45c41eeeb1775a1d1e1a484195a8faad"),
]


class Refused(NamedTuple):
    """`lambdaset` with these space-separated arguments exits 1 with an
    empty stdout and the one `error:` line `line`, reading stdin if it is
    given."""

    command: str
    line: str
    stdin: str | None = None


# 10^-8600 lies below 2^-16384, and its denominator says so before any
# of its 16384 zero digits is computed
TINY = "0." + "0" * 4299 + "1e-4300"
# deeper than any interpreter's default recursion limit: refused in about 2 ms
NESTED = "[" * 100000 + "]" * 100000
DIM = "dim --x 1/3 --center 9/20 --radius 1/20 --eps-min-exp"
EXPANSION = "error: more than 16384 digits in the binary expansion of 1/1"
TAIL = "error: ell, k_max must be positive and q_max nonnegative"
TRIALS = "error: trials must be positive, got "
MIN_BITS = "error: precision_bits must be at least 32"
GAP_FILE = ('error: <stdin>: expected '
            '{"hull": [lo, hi], "gaps": [[lo, hi], ...]}')

REFUSED = [
    # no command, a missing flag, and a value not rational (an unknown
    # command prints argparse's own choice list, which differs between
    # interpreters: test_cli.py compares it with the running one's)
    Refused("", "error: the following arguments are required: command"),
    Refused("verify --trials 2",
            "error: the following arguments are required: --x"),
    Refused("code --x not-a-number --lambda 1/2",
            "error: argument --x: not a rational: 'not-a-number'"),
    # verify reads its case from --x, and each command has one output and
    # its own flags
    Refused("verify --case B --trials 1",
            "error: the following arguments are required: --x"),
    Refused("verify --case A --x 1/3 --trials 1",
            "error: unrecognized arguments: --case A"),
    Refused("cover --x 1/3 --depth 2 --format csv",
            "error: unrecognized arguments: --format csv"),
    Refused("cover --x 1/3 --depth 2 --format json",
            "error: unrecognized arguments: --format json"),
    Refused("svg-gaps --x 1/3 --out d.svg",
            "error: unrecognized arguments: --out d.svg"),
    Refused("code --x 1/4 --lambda 1/2 --bits 64",
            "error: unrecognized arguments: --bits 64"),
    Refused("common --targets 1/3,abc",
            "error: argument --targets: not a rational: 'abc'"),
    # values out of range, refused before any work
    Refused("cover --x 1/2 --depth 2", "error: x must lie in (0, 1/2): 1/2"),
    Refused("verify --x 1/3 --trials 0", TRIALS + "0"),
    Refused("verify --x 1/3 --trials -1", TRIALS + "-1"),
    Refused("verify --x 1/4 --trials 0", TRIALS + "0"),
    Refused("verify --x 1/4 --trials -1", TRIALS + "-1"),
    Refused("cover --x 1/4 --depth 2 --width-bits -3",
            "error: width_bits must be nonnegative"),
    Refused(f"{DIM} -3", "error: grid exponent -3 is negative"),
    # a window of no length lies inside [x, 1/2] but holds no box
    Refused("dim --x 1/3 --center 2/5 --radius 0 --eps-min-exp 4 "
            "--eps-max-exp 6",
            "error: window (2/5, 2/5) has no positive length"),
    Refused("common --targets 1/3 --depth 1 --bits 0", MIN_BITS),
    Refused("common --targets 1/3 --depth 1 --bits 16", MIN_BITS),
    Refused("thickness-cl --ell 1 --qmax -1 --x 1/3", TAIL),
    Refused("thickness-cl --ell 1 --kmax 0 --x 1/3", TAIL),
    Refused("thickness-cl --ell 1 --qmax -2 --x 1/3", TAIL),
    Refused("cantor-ds --ell 0 --x 1/3", TAIL),
    Refused("svg-gaps --kmax 0 --x 1/3", TAIL),
    # the diagram draws gap words of length at most 1
    Refused("svg-gaps --x 1/3 --qmax 2", "error: q_max must be 0 or 1, got 2"),
    Refused("svg-gaps --x 1/3 --qmax -1",
            "error: q_max must be 0 or 1, got -1"),
    # huge decimal exponents, refused before Fraction computes 10^|e|
    Refused("expansion --x 1e-100000000",
            "error: argument --x: not a rational: '1e-100000000'"),
    Refused("cover --x 1e-1_000_000 --depth 2",
            "error: argument --x: not a rational: '1e-1_000_000'"),
    Refused("thickness --gaps -", "error: not a rational: '1e-10000000'",
            '{"hull": ["0", "1"], "gaps": [["1e-10000000", "1/2"]]}'),
    # a JSON integer past the interpreter's integer-to-string digit limit
    Refused("thickness --gaps -", f"error: not a rational: '1{'0' * 5000}'",
            f'{{"hull": [0, 1{"0" * 5000}], "gaps": []}}'),
    # a gap file that is not JSON, and files of the wrong shape, the first
    # of them a bare 5001-digit integer
    Refused("thickness --gaps -", "error: <stdin>: not JSON: Expecting "
            "value: line 1 column 1 (char 0)", "x\n"),
    Refused("thickness --gaps -", GAP_FILE, "1" + "0" * 5000),
    Refused("thickness --gaps -", GAP_FILE, "[1, 2]"),
    Refused("thickness --gaps -", GAP_FILE, '{"hull": [0], "gaps": []}'),
    Refused("thickness --gaps -", GAP_FILE, '{"hull": [0, 1], "gaps": 5}'),
    Refused("thickness --gaps -", "error: <stdin>: JSON nested too deeply",
            NESTED),
    # a thickness of about 2^1099, past the float range of `thickness_float`
    Refused("thickness --gaps - --bits 2000",
            "error: integer division result too large for a float",
            json.dumps({"hull": ["0", "1"], "gaps": [
                ["1/2", str(Fraction(1, 2) + Fraction(1, 1 << 1100))]]})),
    # 10^-4300's period is far past the budget: no greedy run. Rationals
    # print in full, past the integer-to-string digit limit.
    Refused("expansion --x 1e-4300", EXPANSION + "0" * 4300),
    Refused("cover --x 1e4300 --depth 2",
            "error: x must lie in (0, 1/2): 1" + "0" * 4300),
    Refused(f"expansion --x {TINY}", EXPANSION + "0" * 8600),
    Refused(f"cover --x {TINY} --depth 2", EXPANSION + "0" * 8600),
    # a box below 2^-16384, a ladder of more sizes than the digit budget, or
    # a precision or a width past 16384 bits, is refused before any work
    Refused(f"{DIM} 16383 --eps-max-exp 16385",
            "error: grid exponent 16385 is above 16384"),
    Refused(f"{DIM} 4 --eps-max-exp 100000000000",
            "error: more than 16385 grid sizes: 99999999997"),
    Refused(f"{DIM} 9999999999 --eps-max-exp 10000000000",
            "error: grid exponent 10000000000 is above 16384"),
    Refused("cover --x 1/3 --depth 2 --bits 1000000",
            "error: precision_bits must be at most 16384"),
    Refused("cover --x 1/3 --depth 2 --width-bits 1000000",
            "error: width_bits must be at most 16384"),
    # deep covers, common-ratio searches, long expansions, high piece
    # indices, trial counts and gap records meet the same budget before any
    # root is solved; the diagram's refusal names its default q_max of 1
    Refused("cover --x 1/3 --depth 60",
            "error: more than 16384 admissible prefixes of length 60 for 1/3"),
    Refused("cover --x 1/3 --depth 2000", "error: more than 16384 "
            "admissible prefixes of length 2000 for 1/3"),
    Refused("cover --x 1/3 --depth 1000000000", "error: more than 16384 "
            "admissible prefixes of length 1000000000 for 1/3"),
    Refused("common --targets 1/3 --depth 1000", "error: more than 16384 "
            "denominators or candidate ratios for depth 1000"),
    Refused("common --targets 1/3 --depth 34", "error: more than 16384 "
            "denominators or candidate ratios for depth 34"),
    Refused("common --targets 1/3,1/4 --depth 40", "error: more than 16384 "
            "denominators or candidate ratios for depth 40"),
    Refused("cover --x 0.1234567 --depth 4", "error: more than 16384 digits "
            "in the binary expansion of 1234567/10000000"),
    Refused("expansion --x 0.123456789", "error: more than 16384 digits in "
            "the binary expansion of 123456789/1000000000"),
    Refused("cover --x 1e-30 --depth 3", EXPANSION + "0" * 30),
    Refused("pieces --x 1/3 --k 100000",
            "error: more than 16384 pieces: k=100000"),
    Refused("verify --x 1/3 --trials 16385",
            "error: more than 16384 trials: 16385"),
    Refused("verify --x 1/4 --trials 1000000000",
            "error: more than 16384 trials: 1000000000"),
    Refused("thickness-cl --x 1/3 --ell 1 --kmax 3 --qmax 30",
            "error: more than 16384 gap records for k_max=3, q_max=30"),
    Refused("cantor-ds --x 1/3 --ell 1 --kmax 3 --qmax 30",
            "error: more than 16384 gap records for k_max=3, q_max=30"),
    Refused("svg-gaps --x 1/3 --ell 1 --kmax 20000",
            "error: more than 16384 gap records for k_max=20000, q_max=1"),
    # overlapping 2^-80 switch_lower cells, and a 2^-64 square_identity cell
    # whose residual misses the cap, are undecided, not violated
    Refused("verify --x 1/1000 --trials 5",
            "error: switch_lower of word 01001010011 not decided at target "
            "width 2^-80"),
    Refused("verify --x 1/4 --trials 5 --width-bits 64",
            "error: square_identity of piece 1 not decided at target width "
            "2^-64"),
]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def manifest_digest(err: str) -> str | None:
    """The `output_digest` of the manifest that ends stderr, if there is
    one."""
    try:
        return json.loads(err.splitlines()[-1])["output_digest"]
    except (IndexError, KeyError, TypeError, ValueError):
        return None


def refused_as_pinned(code: int, out: str, err: str, line: str) -> bool:
    """Exit 1, an empty stdout, and `line` as the one `error:` line of
    stderr: its only line for a refusal of the library, after the usage
    for a refusal of the parser."""
    *usage, last = err.splitlines() or [""]
    return ((code, out, last) == (1, "", line)
            and (not usage or usage[0].startswith("usage: "))
            and not any(text.startswith("error:") for text in usage))


def _replay(command: str, stdin: str | None, timeout: int):
    """Exit code, stdout and stderr of the `lambdaset` script on PATH, or
    None if it is still running after `timeout` seconds."""
    try:
        done = subprocess.run(["lambdaset", *command.split()],
                              input=stdin or "", capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    return done.returncode, done.stdout, done.stderr


def main() -> int:
    failed = []
    for command, digest, stdin in PINNED:
        run = _replay(command, stdin, 10)
        if run is None or run[0] != 0 or {
                sha256(run[1]), manifest_digest(run[2])} != {digest}:
            failed.append((command, run))
    for command, line, stdin in REFUSED:
        run = _replay(command, stdin, 2)
        if run is None or not refused_as_pinned(*run, line):
            failed.append((command, run))
    for command, run in failed:
        print(f"FAIL lambdaset {command[:100]}: " + (
            "timed out" if run is None else f"exit {run[0]}, stdout sha256 "
            f"{sha256(run[1])}, manifest digest {manifest_digest(run[2])}, "
            f"stderr ending {run[2][-200:]!r}"))
    total = len(PINNED) + len(REFUSED)
    print(f"{total - len(failed)} of {total} pinned runs and refusals "
          "as recorded")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
