"""Traffic laboratory for archival replay: a negative-caching reverse proxy, a
deterministic simulator of recurring-request page behaviors, and a request-rate
analyzer for before/after comparisons."""
