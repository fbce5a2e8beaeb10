"""Packaging for the ``repro`` library (``src/`` layout).

Install with ``pip install .``, or ``pip install -e .`` for a checkout
you edit; offline, add ``--no-build-isolation --no-deps`` so pip uses
the setuptools, numpy and scipy already installed.  pip needs the
``wheel`` package for either; without it, ``python setup.py develop``
makes the editable install.  The version is read from
``src/repro/_version.py``, its single source of truth.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

HERE = Path(__file__).resolve().parent
VERSION = re.search(
    r'__version__ = "([^"]+)"',
    (HERE / "src" / "repro" / "_version.py").read_text(encoding="utf-8"),
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Reproduction of 'Modeling user submission strategies on production "
        "grids': latency models, strategy optimisers and a grid simulator"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy", "scipy"],
    python_requires=">=3.10",
)
