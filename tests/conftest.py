import pytest

from ismaf import data, encoders, model, serialize


@pytest.fixture
def token_scans(monkeypatch):
    """The number of texts of each call of the records' token scan,
    ``data.text_tokens``; the counting wrapper also replaces any copy of it
    that another module imported."""
    calls = []
    scan = data.text_tokens

    def counting(texts):
        calls.append(len(texts))
        return scan(texts)

    for module in (data, encoders, model, serialize):
        monkeypatch.setattr(module, "text_tokens", counting, raising=False)
    return calls
