"""Paper §8 sketches that no query route serves: continuous queries, delayed churn, snapshot reads, shortest paths."""
