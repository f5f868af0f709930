import sys
from pathlib import Path

from hypothesis import settings

# Make the sibling oracle helpers importable regardless of rootdir.
sys.path.insert(0, str(Path(__file__).parent))

# One deterministic budget for every property test, so the suite gives the
# same result on every run and stays fast.
settings.register_profile(
    "tlkit", derandomize=True, database=None, deadline=None, max_examples=40
)
settings.load_profile("tlkit")
