"""Package metadata for ``pip install .`` (or ``python setup.py develop``).

The library is pure Python apart from ``repro/bvh/traverse.c`` and
``repro/bvh/steps.c``, which are shipped as package data and compiled at
run time into one library (see ``repro.bvh.compiled``), so the package
builds without a C toolchain.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.M).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.bvh": ["*.c"]},
    install_requires=["numpy", "orjson", "scipy"],
)
