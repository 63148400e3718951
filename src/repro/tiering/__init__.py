"""Shim for deleted adaptive tiering; see :mod:`repro.tiering.policy`."""
