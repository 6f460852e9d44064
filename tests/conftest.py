import pytest


@pytest.fixture
def call_counter(monkeypatch):
    """count(module, *names) replaces each module attribute by a counting
    wrapper and returns the dict of call counts."""

    def count(module, *names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(module, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        return counts

    return count
