import sys
from pathlib import Path

# the harness modules import each other by bare name, as they do when
# run as ``python3 perfbench/run.py``; the serve-mix population comes
# from the program under src/
BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))
