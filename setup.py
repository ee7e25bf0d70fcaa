"""Setuptools entry point.

Minimal metadata kept here (no ``pyproject.toml`` in this repo) so that
``pip install .`` works in offline environments whose pip/setuptools
combination cannot perform PEP 660 editable installs.
"""

from setuptools import find_packages, setup

setup(
    name="sofya-repro",
    version="0.1.0",
    description="Reproduction of SOFYA-style online relation alignment (EDBT'16)",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
