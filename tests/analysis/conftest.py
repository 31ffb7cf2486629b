"""Keep pytest out of the linter's known-bad fixture corpus.

``fixtures/`` holds deliberately broken modules (the regression each
surviving RPL rule re-finds); they are linted as text by the reprolint
tests and must never be imported or collected.
"""

collect_ignore = ["fixtures"]
