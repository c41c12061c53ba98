"""Reference implementations the suite compares ``src/`` against."""
