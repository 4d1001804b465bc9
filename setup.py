from setuptools import find_packages, setup

setup(
    name="kollaps-repro",
    version="0.5.0",
    description=("Reproduction of Kollaps: decentralized, scalable network "
                 "emulation (EuroSys '20)"),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
    python_requires=">=3.10",
    # Dependency-free on purpose: every subsystem runs on the standard
    # library alone (tests/test_stdlib_only.py holds it to that).
    install_requires=[],
    extras_require={
        "dev": ["pytest", "pytest-benchmark", "hypothesis"],
    },
)
