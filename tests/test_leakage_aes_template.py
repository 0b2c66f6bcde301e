"""The memoized AES template and AES input validation.

``aes_program`` assembles the text once per ``(key, rounds,
warm_cache)`` and pokes each plaintext into a copy of that image.  These
tests pin that the result is indistinguishable from a fresh assembly of
the plaintext-bearing text, that no call can leak state into the next,
and that malformed keys and plaintexts are typed errors rather than
silently wrong ciphertexts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trace_cache import trace_key
from repro.leakage import aes
from repro.leakage.aes import (DEFAULT_KEY, FIPS_CIPHERTEXT, FIPS_KEY,
                               FIPS_PLAINTEXT, STATE_BASE,
                               aes128_encrypt_reference, aes_program,
                               key_schedule, read_ciphertext)
from repro.robustness.errors import ConfigurationError
from repro.uarch import GoldenSimulator
from repro.uarch.config import CoreConfig

_BLOCKS = st.lists(st.integers(0, 255), min_size=16, max_size=16)


def _fresh(key, plaintext, rounds, warm_cache):
    """A full assembly with ``plaintext`` in the text's state bytes."""
    return aes._assemble_aes(key, plaintext, rounds, warm_cache)


def _ciphertext(program):
    golden = GoldenSimulator(program)
    golden.run(max_steps=100_000)
    assert golden.halted
    return read_ciphertext(golden.memory)


@given(key=_BLOCKS, plaintext=_BLOCKS, rounds=st.integers(1, 3),
       warm_cache=st.booleans())
@settings(max_examples=20, deadline=None)
def test_template_matches_fresh_assembly(key, plaintext, rounds,
                                         warm_cache):
    program = aes_program(key, plaintext, rounds=rounds,
                          warm_cache=warm_cache)
    fresh = _fresh(key, plaintext, rounds, warm_cache)
    assert program.instructions == fresh.instructions
    assert program.data == fresh.data
    assert program.symbols == fresh.symbols
    assert program.name == fresh.name
    assert program.entry == fresh.entry
    config = CoreConfig()
    assert trace_key(program, config) == trace_key(fresh, config)


def test_calls_do_not_share_mutable_state():
    first = aes_program(DEFAULT_KEY, [0x11] * 16, rounds=2)
    second = aes_program(DEFAULT_KEY, [0x22] * 16, rounds=2)
    assert first.data is not second.data
    assert first.instructions is not second.instructions
    assert first.data[STATE_BASE] == 0x11
    assert second.data[STATE_BASE] == 0x22
    first.data[STATE_BASE] = 0x99
    first.data[0x7000] = 1
    first.symbols["extra"] = 0
    first.instructions.pop()
    third = aes_program(DEFAULT_KEY, [0x22] * 16, rounds=2)
    assert third.data == second.data
    assert third.symbols == second.symbols
    assert third.instructions == second.instructions


def test_fips_vector_after_repeated_calls():
    for plaintext in ([0] * 16, FIPS_PLAINTEXT, [255] * 16):
        aes_program(FIPS_KEY, plaintext).data[STATE_BASE] ^= 0xFF
    program = aes_program(FIPS_KEY, FIPS_PLAINTEXT)
    assert tuple(_ciphertext(program)) == FIPS_CIPHERTEXT


@given(key=_BLOCKS, plaintext=_BLOCKS)
@settings(max_examples=5, deadline=None)
def test_reduced_rounds_match_reference(key, plaintext):
    program = aes_program(key, plaintext, rounds=1)
    assert _ciphertext(program) == \
        aes128_encrypt_reference(key, plaintext, rounds=1)


_BAD_BLOCKS = [
    pytest.param(list(FIPS_PLAINTEXT[:15]), id="short"),
    pytest.param(list(FIPS_PLAINTEXT) + [0], id="long"),
    pytest.param(list(FIPS_PLAINTEXT[:15]) + [300], id="byte-300"),
    pytest.param(list(FIPS_PLAINTEXT[:15]) + [-1], id="negative"),
    pytest.param(list(FIPS_PLAINTEXT[:15]) + [1.5], id="float"),
]


@pytest.mark.parametrize("block", _BAD_BLOCKS)
def test_aes_program_rejects_bad_plaintext(block):
    with pytest.raises(ConfigurationError) as excinfo:
        aes_program(FIPS_KEY, block)
    assert excinfo.value.exit_code == 16


@pytest.mark.parametrize("block", _BAD_BLOCKS)
def test_aes_program_rejects_bad_key(block):
    with pytest.raises(ConfigurationError):
        aes_program(block, FIPS_PLAINTEXT)


@pytest.mark.parametrize("block", _BAD_BLOCKS)
def test_key_schedule_rejects_bad_key_typed(block):
    with pytest.raises(ConfigurationError):
        key_schedule(block)


@pytest.mark.parametrize("block", _BAD_BLOCKS)
def test_reference_rejects_bad_inputs(block):
    with pytest.raises(ConfigurationError):
        aes128_encrypt_reference(FIPS_KEY, block)
    with pytest.raises(ConfigurationError):
        aes128_encrypt_reference(block, FIPS_PLAINTEXT)


def test_numpy_bytes_accepted():
    plaintext = list(np.arange(16, dtype=np.int64) * 7)
    assert aes_program(DEFAULT_KEY, plaintext, rounds=1).data == \
        _fresh(DEFAULT_KEY, [int(v) for v in plaintext], 1, True).data
