"""The profile variant's reservoir draws are ``randrange`` bit for bit.

The generated profile code draws reservoir slots with a site stream's
``getrandbits`` plus rejection (:func:`repro.interp.codegen.next_kept`)
instead of calling ``random.Random.randrange`` per instance.  That is
CPython's own ``_randbelow_with_getrandbits``; if a Python release
changes it, these tests fail instead of every profile — and every
number computed from one — moving silently.
"""

import random

import pytest

from repro.interp.codegen import next_kept

SEEDS = (0, 2018, 0xDEADBEEF)


@pytest.mark.parametrize("seed", SEEDS)
def test_draw_equals_randrange_up_to_5000(seed):
    reference = random.Random(seed)
    draw = random.Random(seed).getrandbits
    for n in range(1, 5001):
        # With the cap at n the first draw is always kept, so the
        # returned slot is exactly the draw for instance n.
        assert next_kept(draw, n - 1, n) == (n, reference.randrange(n))


@pytest.mark.parametrize("seed", SEEDS)
def test_draw_equals_randrange_above_2_32(seed):
    reference = random.Random(seed)
    draw = random.Random(seed).getrandbits
    for n in (2**32, 2**32 + 1, 2**33 - 1, 3 * 2**40 + 7, 2**63 + 5,
              2**64 - 1):
        assert next_kept(draw, n - 1, n) == (n, reference.randrange(n))


@pytest.mark.parametrize("cap", (1, 4, 32))
def test_schedule_equals_per_instance_reservoir(cap):
    """Drawing the kept instances ahead keeps exactly the instances, and
    slots, of one ``randrange`` per instance beyond the cap."""
    total = 6000
    reference = random.Random(7)
    expected = []
    for m in range(cap + 1, total + 1):
        slot = reference.randrange(m)
        if slot < cap:
            expected.append((m, slot))
    draw = random.Random(7).getrandbits
    got, n = [], cap
    while True:
        n, slot = next_kept(draw, n, cap)
        if n > total:
            break
        got.append((n, slot))
    assert got == expected
