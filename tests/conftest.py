"""One hypothesis profile for the whole suite: reproducible examples, no deadline,
no example database.  Each test sets only its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("geoham", deadline=None, derandomize=True, database=None)
settings.load_profile("geoham")
