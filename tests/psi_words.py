"""The exotic maps on words: the reference oracle for coxaut's ball maps.

psi_phi and psi_n in coxaut.automorphisms walk a label field down the
breadth-first tree of a ball; these functions spell the image of a whole
word instead, so that a test can reduce the image by rewriting and look it
up, independent of the walk and of keys.  Both take the system first, as
the maps on words of a system; the images need only the witness.
"""

from coxaut.system import CoxeterSystem, FlexibilityWitness
from coxaut.words import Word


def psi_phi_word(system: CoxeterSystem, witness: FlexibilityWitness, word: Word) -> Word:
    """Apply phi before the first pivot occurrence, keep the rest.

    For a reduced word w = w1 s w2 with s the pivot and w1 pivot-free, the
    image is phi(w1) s w2; a word with no pivot maps to phi(word).
    """
    word = tuple(word)
    try:
        cut = word.index(witness.pivot)
    except ValueError:
        return tuple(witness.phi[x] for x in word)
    return tuple(witness.phi[x] for x in word[:cut]) + word[cut:]


def psi_n_word(system: CoxeterSystem, witness: FlexibilityWitness, n: int, word: Word) -> Word:
    """Keep everything through the n-th pivot occurrence, apply phi after it.

    Words with fewer than n pivot occurrences are fixed.
    """
    word = tuple(word)
    positions = [i for i, x in enumerate(word) if x == witness.pivot]
    if len(positions) < n:
        return word
    cut = positions[n - 1]
    return word[: cut + 1] + tuple(witness.phi[x] for x in word[cut + 1 :])
