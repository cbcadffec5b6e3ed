"""The scripts in scripts/ run and print their known output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

WALKTHROUGH = """\
g = strst  (length 5, normal form strst)
T(g) = {s,t}
w(g) = st
Pi(g) = str
chunks:
  T={s,t}  w=st  remainder=str
  T={r}  w=r  remainder=st
  T={s,t}  w=st  remainder=e
|W(g)| = 3  reflections: strst, srtrs, trsrt
canonical word: strst
language words (4): strst, strts, tsrst, tsrts
automaton: 25 states, 46 transitions, max wall depth 5
"""

FT_TABLES = """\
# fig1.cox  (K = 4)
radius\tK\tmax_ii\tmax_iii\twitness_g_nf\twitness_s
2\t4\t2\t1\tt\ts
4\t4\t4\t3\tsrsr\tt

# triangle_333.cox  (K = 3)
radius\tK\tmax_ii\tmax_iii\twitness_g_nf\twitness_s
2\t3\t2\t3\tba\tb
4\t3\t2\t3\tabac\tb

"""


@pytest.mark.parametrize("argv,stdout", [
    (["figure_walkthrough.py"], WALKTHROUGH),
    (["ft_tables.py", "--radii", "2,4"], FT_TABLES),
])
def test_script_output(argv, stdout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0])]
                          + argv[1:], capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == stdout
