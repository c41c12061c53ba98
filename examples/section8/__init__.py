"""Paper §8 sketches and experiment drivers that no query route serves.

Continuous queries, delayed churn, snapshot reads and shortest paths; the
§8.1 cache hierarchy and the §8.3 piggyback policy; and the drivers of the
paper's experiments: random walks, the event queue and simulation engine,
and the volatile-stock day behind Figures 5 and 6.
"""
