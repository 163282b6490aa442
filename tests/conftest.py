from hypothesis import settings

# Selected with --hypothesis-profile=ci: the same examples on every run, so a
# failing CI run replays exactly, and no deadline on a shared runner.
settings.register_profile("ci", derandomize=True, deadline=None)
