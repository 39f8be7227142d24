"""The package metadata agrees with the package."""
from __future__ import annotations

import warnings
from pathlib import Path

import pytest

import claimpipe

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "claimpipe"


def read_configuration() -> dict:
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        # setuptools flags its [tool.setuptools] table as beta.
        warnings.simplefilter("ignore")
        return pyprojecttoml.read_configuration(ROOT / "pyproject.toml")


def test_the_version_setuptools_reads_is_the_package_version():
    assert read_configuration()["project"]["version"] == claimpipe.__version__


def test_the_package_data_is_exactly_the_prompt_files():
    globs = read_configuration()["tool"]["setuptools"]["package-data"]["claimpipe"]
    for pattern in globs:
        assert list(PACKAGE.glob(pattern)), f"{pattern} matches no file"
    shipped = {path for pattern in globs for path in PACKAGE.glob(pattern)}
    prompt_files = {
        path
        for path in (PACKAGE / "prompts").rglob("*")
        if path.is_file() and path.suffix not in (".py", ".pyc")
    }
    assert prompt_files <= shipped
