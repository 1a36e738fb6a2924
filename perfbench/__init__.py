"""A benchmark of the oblivious-power SINR scheduling library in ``src/``."""
