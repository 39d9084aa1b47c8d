"""One derandomized `hypothesis` profile for every property test: the same
examples on every run, no example database, no deadline."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None, max_examples=300)
settings.load_profile("derandomized")
