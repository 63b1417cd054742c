"""Packaging for the ``repro`` library under ``src/``.

This file holds all the package metadata; the repository has no
``pyproject.toml``.  The tests, benchmarks and examples do not need an
install: they run with ``PYTHONPATH=src`` from the repository root.
``pip install -e .`` is the optional editable install.
"""

from setuptools import find_namespace_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_namespace_packages(
        "src", include=["repro", "repro.*"], exclude=["*.__pycache__"]
    ),
    python_requires=">=3.10",
    install_requires=["numpy", "networkx"],
)
