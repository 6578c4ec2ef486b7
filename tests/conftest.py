import pytest

from sphereflow import SpectralGrid


@pytest.fixture
def transform_count(monkeypatch):
    """Count SpectralGrid.to_coeffs and to_values calls; read ``count[0]``."""
    count = [0]
    for name in ("to_coeffs", "to_values"):
        orig = getattr(SpectralGrid, name)

        def counted(self, *args, _orig=orig, **kwargs):
            count[0] += 1
            return _orig(self, *args, **kwargs)

        monkeypatch.setattr(SpectralGrid, name, counted)
    return count
