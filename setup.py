"""Packaging for the SymNet reproduction.

There is no ``pyproject.toml``: this file is the whole package description,
kept setuptools-only so ``pip install .`` and ``python setup.py develop``
work in offline environments where pip cannot download build-isolation
dependencies.  The package has no runtime dependencies.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="SymNet reproduction: scalable symbolic execution for modern networks",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
