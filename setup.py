"""Packaging for the AITF reproduction.

``pip install -e .`` gives the ``repro`` package and its one hard
dependency, networkx — no longer imported by a run (routes are computed on
the topology's own adjacency), it serves the ``Topology.graph`` analysis
views, ``bench/gen_workloads.py`` and the test oracles.  Figures
(``repro report --plot``, ``repro paper``) are written by the package's own
SVG renderer and need nothing more.  The one extra, ``test``, is pytest and
pytest-benchmark: what CI installs to run the tier-1 suite and the benchmark
harness.

Packaging stays setup.py-only on purpose: a pyproject.toml would switch
``pip install -e .`` onto the PEP 517 path, which needs the ``wheel``
package, while plain setup.py keeps the legacy editable install working on
minimal environments.  Lint configuration (ruff) therefore lives in
``ruff.toml``.
"""

import re

from setuptools import find_packages, setup

# One source of truth for the version: read it (no import, so installing
# needs none of the package's dependencies) from the package itself.
with open("src/repro/__init__.py") as handle:
    VERSION = re.search(r'^__version__ = "([^"]+)"', handle.read(), re.M).group(1)

setup(
    name="repro-aitf",
    version=VERSION,
    description=("Reproduction of AITF: Active Internet Traffic Filtering "
                 "(Argyraki & Cheriton, USENIX 2005)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "networkx",
    ],
    extras_require={
        "test": ["pytest", "pytest-benchmark"],
    },
)
