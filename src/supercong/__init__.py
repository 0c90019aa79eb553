"""Exact-arithmetic verification of supercongruences satisfied by truncated
hypergeometric series, with the eta-product modular form supplying the
prime-indexed targets and a case harness tying every claim to a runnable,
reportable check."""
