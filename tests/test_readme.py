import re
import subprocess
import sys
from pathlib import Path

from .corpus import CHILD_ENV

README = Path(__file__).parents[1] / "README.md"


def test_readme_library_example_runs():
    # The README's one Python block, run as written against the library.
    [example] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    proc = subprocess.run(
        [sys.executable, "-c", example], capture_output=True, check=True, env=CHILD_ENV, text=True
    )
    assert proc.stdout == "7 2\n"
