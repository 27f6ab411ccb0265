"""Wall-clock benchmark of the RAVE reproduction (see bench/README.md)."""
