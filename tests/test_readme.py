import os
import re
import subprocess
import sys

import passrecall

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_library_use_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    section = readme[readme.index("\n## Library use\n") :]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    src = os.path.dirname(os.path.dirname(passrecall.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, "-c", example],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    # Each line is "<combined> <doc_id> <passage_text>", best first.
    assert result.stdout.split()[1] == "doc-2"
