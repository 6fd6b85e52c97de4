"""Serving benchmark for the EchoImage request path.

Drives ``RequestBroker.submit`` -> ``BatchAuthenticator`` in-process with
seeded open-loop and drain traffic; see ``perfbench/README.md``.
"""
