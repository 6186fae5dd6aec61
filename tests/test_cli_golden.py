"""Every README command, the seeded skew-ring audits and the certified-chain
commands print exactly the recorded bytes.

``cli_golden.json`` maps each command line (without the leading
``factorlab``) to its exit code, standard output and standard error, as
``cli.main`` produced them before the skew-product kernel ran on integer
rows (README commands and audits) and before the accp, b-power and peeling
certificates ran at the level of runs (``CHAINS``; the two rational
``pi-demo`` lines were recorded before ``LaurentPoly2`` stored integer
numerators, the two ``b^1000000`` lines before the accp chain and the b-power
witness were certified by one check and a lemma), and before the code that
no command reaches was deleted (``BRANCHES``, one command per normal branch
that the other lines miss; the parenthesized ``pi-demo`` entry and the three
``growth`` lines after it were recorded before the oracle table walked the
group and before algebra coefficients were read by ``parse_rational``, the
four lines after those before bounded division solved one unique system over
unsorted candidates, and the ``lengths ... --json`` line before a length set
was stored as a range).  Every ``growth`` line ends in the proven growth
class of its frame; that last line was re-recorded when the class replaced
a guess from the table, and the bytes before it were kept.  The line
``growth ... --n-max 3 --json`` was recorded after that change, and the two
``lenfn-check --candidate a-plus-b-count`` lines after it later still, so
that a golden line reads the b-count of a canonical form.  The
``in-all-sbn`` lines lost their `` (probe N)`` suffix and their ``"probe"``
key when the answer became exact, every other byte kept; the last of them,
``in-all-sbn "b^2 a b a b"``, was recorded after that change.  The README
commands are read from the README itself, so a command added there without
a recorded answer fails here.
"""

import json
import shlex
from pathlib import Path

import pytest

from factorlab.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "cli_golden.json").read_text())
AUDITS = (
    "skew-check --config weyl --pairs 1000 --seed 1",
    "skew-check --config qplane:q=-3/4 --pairs 1000 --seed 1",
    "skew-check --config qtorus:q=3 --pairs 1000 --seed 1",
    "filt-check --pairs 500 --json",
)
CHAINS = (
    'in-all-sbn "b b b"',
    'in-all-sbn "a^2 b^3" --json',
    # a million b's: the answer is read off the embedding, not probed step by step
    'in-all-sbn "b^1000000"',
    'in-all-sbn "a^2 b^1000000" --json',
    'in-all-sbn "b^2 a b a b"',  # N = 1, below the b-count of 4
    "accp --depth 3 --json",
    "pi-demo --steps 3 --json",
    'pi-demo --matrix "1; x; 1; x" --steps 3',  # det 0: refused, exit 2
    'pi-demo --matrix "1; x; 1; 1" --steps 3',  # second column not in xS: exit 2
    # rational entries: the display of reduced coefficients
    'pi-demo --matrix "1/2 + 3/7*y; 2/3*x; -5/4*y^-1; 1/6*x*y - 1/9*x" --steps 3',
    'pi-demo --matrix "1/2 + 3/7*y; 2/3*x; -5/4*y^-1; 1/6*x*y - 1/9*x" --steps 3 --json',
)
BRANCHES = (
    'atom "e"',  # unit
    'atom "a"',  # atom
    'lengths "a b" --cap 5',  # a finite length set
    'alg add "1 * a" "1/2 * b"',
    'alg deg "0"',  # the zero element: -inf
    'alg mul "1/2 * a" "b" --char 7',
    'alg divides "1 * a" "0"',
    # a solved linear system: the only line that reaches the exact solve
    'alg divides "1 * a + 1 * b" "1 * a^2 + 1 * a b + 1 * b a + 1 * b^2" --cap 3',
    "growth --family free --n-max 10 --gnuplot",
    'normalize "a b" --json',  # a group element with a free part
    # parentheses and a power of a sum in a matrix entry
    'pi-demo --matrix "(1 + y)^2; x*(1 + y); 1; x*y" --steps 2',
    "growth --family free-commutative --n-max 12",
    "growth --family free-commutative --n-max 24",
    "growth --family two-relator --n-max 30 --budget 1000",  # truncated at n = 10
    # no cofactor of length <= 3: the solve is inconsistent
    'alg divides "1 * a + 1 * b" "1 * a^2 + 1 * b" --cap 3',
    'alg divides "1 * a + 1 * b" "1 * a^2 + 1 * a b + 1 * b a + 1 * b^2" --cap 3 --char 7',
    'pi-demo --matrix "0; x; 1; x*y" --steps 1',  # a zero entry on display
    "growth --family two-relator --n-max 30 --budget 1000 --gnuplot",  # truncated columns
    'lengths "a^3 b a a b a^3 b" --cap 15 --json',  # the JSON length list
    "growth --family free-commutative --n-max 3 --json",  # a polynomial class in JSON
    "lenfn-check --candidate a-plus-b-count",  # the b-count of a canonical form
    "lenfn-check --candidate a-plus-b-count --json",
)


def _readme_commands() -> list[str]:
    block = (ROOT / "README.md").read_text().split("## Command line", 1)[1].split("```")[1]
    return [
        line.split("#", 1)[0].strip()[len("factorlab ") :]
        for line in block.splitlines()
        if line.startswith("factorlab ")
    ]


README_COMMANDS = _readme_commands()
CHECKED = README_COMMANDS + list(AUDITS) + list(CHAINS) + list(BRANCHES)


def test_golden_covers_exactly_the_checked_commands():
    assert len(README_COMMANDS) == 13
    assert sorted(GOLDEN) == sorted(CHECKED)


@pytest.mark.parametrize("command", CHECKED)
def test_command_output_is_byte_identical(capsys, command):
    code = main(shlex.split(command))
    captured = capsys.readouterr()
    assert {"exit": code, "stdout": captured.out, "stderr": captured.err} == GOLDEN[command]
