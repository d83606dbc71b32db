"""D006 positive fixture: RNG seeds that are literals."""

import random
from random import Random as Rng

_GLOBAL_RNG = random.Random(1234)  # expect: D006


def fixed_seed():
    return random.Random(42)  # expect: D006


def aliased_keyword_seed():
    return Rng(x=7)  # expect: D006
