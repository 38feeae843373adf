"""Setuptools metadata for the Splice reproduction.

The offline environment ships a setuptools old enough to need a setup.py
for legacy editable installs, so the metadata lives here rather than in a
pyproject.toml.  Runtime needs only numpy; the ``test`` extra adds the
tier-1 toolchain, including Hypothesis for the property-based fuzz layer
(``repro.fuzz`` imports it lazily — corpus *replay* works without it, but
``splice fuzz run`` and the strategy/session modules require it).
"""

from setuptools import find_packages, setup

setup(
    name="splice-repro",
    version="0.9.0",
    description=(
        "Reproduction of Splice: a bus-independent peripheral interface "
        "generator with three equivalent RTL simulation kernels"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[
        "numpy",
    ],
    extras_require={
        "test": [
            "pytest",
            "hypothesis",
        ],
    },
    entry_points={
        "console_scripts": [
            "splice=repro.cli:main",
        ],
    },
)
