"""A reproduction of Kollaps: decentralized and dynamic topology emulation.

Start at :mod:`repro.scenario` (``docs/api.md``); the command line is
``repro`` (:mod:`repro.cli`).
"""
