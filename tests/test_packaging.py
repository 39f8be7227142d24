"""The package metadata agrees with the package."""
from __future__ import annotations

import warnings
from pathlib import Path

import pytest

import claimpipe

ROOT = Path(__file__).resolve().parents[1]


def test_the_version_setuptools_reads_is_the_package_version():
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        # setuptools flags its [tool.setuptools] table as beta.
        warnings.simplefilter("ignore")
        config = pyprojecttoml.read_configuration(ROOT / "pyproject.toml")
    assert config["project"]["version"] == claimpipe.__version__
