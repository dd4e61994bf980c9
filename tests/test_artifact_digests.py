"""Every artifact of a fixed set of CLI runs keeps the bytes recorded in ``artifact_digests.txt``.

The file holds the lines ``scripts/artifact_digests.py`` prints, headed by the Python, numpy and
BLAS versions they were made with, since the bits depend on that build. On another build the test
fails and names both version sets. A change that alters bits on purpose re-records the file (the
failure message names a copy made by the failing run), and the file's diff is its report.
"""

import difflib
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import blas_version

ROOT = Path(__file__).resolve().parent.parent
RECORDED = Path(__file__).with_name("artifact_digests.txt")


def build_header() -> list[str]:
    return [f"# python {platform.python_version()}", f"# numpy {np.__version__}", f"# blas {blas_version()}"]


def test_artifacts_keep_their_recorded_bytes(tmp_path):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "artifact_digests.py")],
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    made = build_header() + proc.stdout.splitlines()
    recorded = RECORDED.read_text(encoding="utf-8").splitlines()
    if made != recorded:
        copy = tmp_path / RECORDED.name
        copy.write_text("\n".join(made) + "\n", encoding="utf-8")
        versions = [[line[2:] for line in lines if line.startswith("# ")] for lines in (recorded, made)]
        diff = "\n".join(difflib.unified_diff(recorded, made, "recorded", "this run", lineterm=""))
        pytest.fail(f"artifact digests differ from {RECORDED.name}\n"
                    f"recorded with: {', '.join(versions[0])}\nthis run:      {', '.join(versions[1])}\n"
                    f"{diff}\nthis run's lines, headed by its versions: {copy}")
