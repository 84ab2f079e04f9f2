"""The layered benchmark of the PDR server (see bench/README.md)."""
