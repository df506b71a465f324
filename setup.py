"""Package metadata.

This offline environment has setuptools 65 but no ``wheel`` package, so
PEP 517/660 builds (which need ``bdist_wheel``) fail.  Keeping the
metadata here and leaving ``pyproject.toml`` without a ``[build-system]``
table makes ``pip install -e .`` take the legacy ``setup.py develop``
path, which works everywhere.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "DINAR: Personalized Privacy-Preserving Federated Learning "
        "(MIDDLEWARE '24) — full reproduction"
    ),
    long_description=open("README.md").read() if True else "",
    long_description_content_type="text/markdown",
    python_requires=">=3.10",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=[
        "numpy>=1.24",
    ],
    extras_require={
        "dev": ["pytest>=7.0", "pytest-benchmark>=4.0", "hypothesis>=6.0",
                "scipy>=1.10"],
    },
)
