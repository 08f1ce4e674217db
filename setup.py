"""Setuptools shim enabling legacy editable installs (no-network env)."""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "S-Profile: O(1) profiling of dynamic arrays with finite values "
        "(EDBT 2019 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.11",
    install_requires=["numpy"],
    zip_safe=False,
)
