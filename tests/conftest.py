import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from signalgames import corpus
from signalgames.model import SymmetricGameSpec


@pytest.fixture(scope="session")
def games():
    return {name: corpus.build_game(name) for name in corpus.NAMES}


@pytest.fixture(scope="session")
def symmetric_games(games):
    """The corpus games whose file declares public signals, by name."""
    return {name: g for name, g in games.items() if isinstance(g, SymmetricGameSpec)}
