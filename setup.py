"""Package metadata for ``pip install -e .``.

There is no pyproject.toml: everything setuptools needs is here, so an
editable install works on environments whose setuptools lacks PEP 660
support (no `wheel` package available offline).  The version is read
from ``src/repro/version.py``, its single source of truth.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "version.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    # the built-in platforms' fitted models (tools/fit_models.py)
    package_data={"repro.core": ["fitted_models.json"]},
    install_requires=["numpy"],
)
