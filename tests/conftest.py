import pytest


@pytest.fixture(scope="session", autouse=True)
def session_store_cache_home(tmp_path_factory):
    """XDG_CACHE_HOME for the fixtures of wider scope than a test, which are
    set up before ``store_cache_home``: no test reads or fills the user's
    store cache."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache-session")))
        yield


@pytest.fixture(autouse=True)
def store_cache_home(tmp_path_factory, monkeypatch):
    """A fresh, empty XDG_CACHE_HOME for each test, so that no test sees
    the store cache of another; subprocesses that copy ``os.environ``
    inherit it."""
    home = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home
