"""Legacy setup shim.

The execution environment has no ``wheel`` package, so pip's PEP 517
editable path (which builds an editable wheel) cannot run.  Keeping a
``setup.py`` and omitting ``[build-system]`` from ``pyproject.toml``
makes ``pip install -e .`` take the legacy ``setup.py develop`` route,
which works offline.  All metadata lives in ``pyproject.toml``.
"""

from setuptools import setup

setup()
