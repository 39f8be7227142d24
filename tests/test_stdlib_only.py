"""The package runs on the standard library alone."""
from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import claimpipe


def test_importing_the_package_loads_only_stdlib_modules():
    # Other packages may be installed beside claimpipe; none may be imported.
    code = textwrap.dedent(
        """
        import sys
        before = set(sys.modules)
        import claimpipe, claimpipe.cli, claimpipe.evaluation, claimpipe.data
        loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
        print(" ".join(sorted(loaded - set(sys.stdlib_module_names))))
        """
    )
    path = [str(Path(claimpipe.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "claimpipe\n"), proc.stderr
