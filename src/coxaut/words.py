"""Word arithmetic via elementary m-operations.

A word is a tuple of generator ids.  The only rewriting moves are:
replace an alternating segment s t s t ... of length m(s, t) by the
segment t s t s ... of the same length (an m-operation), and delete an
adjacent equal pair s s.  A word is reduced exactly when no word in its
m-operation closure contains an adjacent equal pair, and two reduced
words represent the same element exactly when they lie in the same
closure.  The canonical form of an element is the lexicographically
least word in the m-class of any reduced word for it.

With an integer Cartan matrix (every finite order in {2, 3, 4, 6}) an
element x has a key (element_key): the weight x^-1·rho in fundamental-weight
coordinates, rho = (1, ..., 1), and s is a right descent of x exactly when
coordinate s is negative (Bjorner-Brenti, Combinatorics of Coxeter Groups,
ch. 4).  reduce_word peels the key of the inverse word, x·rho, smallest left
descent first, which spells the canonical form; m_class_size sums over
right descents.  Other systems reduce by m-operations, which stay as the
reference oracle.  build_ball (coxaut.ball) uses none of this.
"""

from __future__ import annotations

from collections import deque

from .system import CoxeterSystem, LimitExceeded

Word = tuple[int, ...]

# Closure sizes grow with the rank and word length; this cap turns a
# runaway enumeration into a clean failure instead of an OOM kill.
DEFAULT_MAX_STATES = 10**6


def apply_m_operation(system: CoxeterSystem, word: Word, position: int, s: int, t: int) -> Word:
    """Replace the alternating s,t segment of length m(s,t) at position by the t,s one."""
    if s == t:
        raise ValueError("m-operation needs two distinct generators")
    m = system.order(s, t)
    if m == float("inf"):
        raise ValueError(f"m({system.name_of(s)},{system.name_of(t)}) is infinite; no m-operation exists")
    if position < 0 or position + m > len(word):
        raise ValueError("m-operation segment does not fit in the word")
    expected = tuple((s, t)[i % 2] for i in range(m))
    if word[position : position + m] != expected:
        raise ValueError("word does not match the alternating segment at that position")
    replacement = tuple((t, s)[i % 2] for i in range(m))
    return word[:position] + replacement + word[position + m :]


def _m_moves(system: CoxeterSystem, word: Word):
    """All words one m-operation away, each with the (position, s, t) that produced it."""
    for s, t, m in system.finite_pairs():
        if m > len(word):
            continue  # no segment of length m fits
        for u, v in ((s, t), (t, s)):
            pattern = tuple((u, v)[i % 2] for i in range(m))
            replacement = tuple((v, u)[i % 2] for i in range(m))
            for pos in range(len(word) - m + 1):
                if word[pos : pos + m] == pattern:
                    yield word[:pos] + replacement + word[pos + m :], (pos, u, v)


def m_closure(system: CoxeterSystem, word: Word, max_states: int = DEFAULT_MAX_STATES) -> set[Word]:
    """All words reachable from `word` by m-operations (length is preserved)."""
    word = tuple(word)
    seen = {word}
    queue = deque([word])
    while queue:
        current = queue.popleft()
        for nxt, _ in _m_moves(system, current):
            if nxt not in seen:
                if len(seen) >= max_states:
                    raise LimitExceeded(f"m-operation closure exceeded {max_states} words")
                seen.add(nxt)
                queue.append(nxt)
    return seen


def _adjacent_repeat(word: Word) -> int | None:
    for i in range(len(word) - 1):
        if word[i] == word[i + 1]:
            return i
    return None


def m_class(system: CoxeterSystem, word: Word, max_states: int = DEFAULT_MAX_STATES) -> set[Word]:
    """The m-closure of a reduced word: all reduced words for its element."""
    word = tuple(word)
    closure = m_closure(system, word, max_states=max_states)
    if any(_adjacent_repeat(w) is not None for w in closure):
        raise ValueError("m_class requires a reduced word")
    return closure


def reflect(cartan: tuple[tuple[int, ...], ...], key: tuple[int, ...], s: int) -> tuple[int, ...]:
    """The simple reflection s applied to a weight: key - key[s] * (row s of the Cartan matrix)."""
    c = key[s]
    return tuple([k - c * a for k, a in zip(key, cartan[s])])


def element_key(system: CoxeterSystem, word: Word) -> tuple[int, ...]:
    """The key x^-1·rho of the element x that word spells; needs system.cartan."""
    key = (1,) * system.rank
    for s in word:
        key = reflect(system.cartan, key, s)
    return key


def m_class_size(system: CoxeterSystem, word: Word, max_states: int = DEFAULT_MAX_STATES) -> int:
    """len(m_class(system, word)): the number of reduced words for the element
    of a reduced word.

    With a Cartan matrix no word is listed: every reduced word of x is a
    reduced word of x·s followed by a right descent s, so the count is a sum
    over right descents, memoized by key down to the identity (count 1), and
    max_states bounds the elements counted.  Otherwise the m-class is listed.
    """
    cartan = system.cartan
    if cartan is None:
        return len(m_class(system, word, max_states=max_states))
    top = element_key(system, word)
    counts: dict[tuple[int, ...], int] = {}
    stack = [top]
    while stack:
        key = stack[-1]
        if key in counts:
            stack.pop()
            continue
        below = [reflect(cartan, key, s) for s, c in enumerate(key) if c < 0]
        missing = [k for k in below if k not in counts]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        if len(counts) >= max_states:
            raise LimitExceeded(f"reduced-word count exceeded {max_states} elements")
        counts[key] = sum(counts[k] for k in below) if below else 1
    return counts[top]


def reduce_word(system: CoxeterSystem, word: Word, max_states: int = DEFAULT_MAX_STATES) -> Word:
    """Canonical form: lexicographically least word in the m-class; with a
    Cartan matrix, left descents peeled off x·rho, the key of the inverse word."""
    word = tuple(word)
    cartan = system.cartan
    if cartan is None:
        return reduce_by_rewriting(system, word, max_states=max_states)
    key = element_key(system, inverse_word(word))
    canonical = []
    while True:
        for s, c in enumerate(key):
            if c < 0:
                break
        else:
            return tuple(canonical)
        canonical.append(s)
        key = reflect(cartan, key, s)


def reduce_by_rewriting(system: CoxeterSystem, word: Word, max_states: int = DEFAULT_MAX_STATES) -> Word:
    """reduce_word by m-operations alone, for any system.

    Repeatedly enumerates the closure of the current word; if any member has
    an adjacent equal pair, deletes that pair and starts over with the
    shorter word.  Otherwise the closure is the m-class and its minimum is
    the canonical form.  Results are memoized on the system, including every
    intermediate word inspected along the way.
    """
    word = tuple(word)
    cache = system._reduce_cache
    if word in cache:
        return cache[word]
    chain = [word]
    current = word
    while True:
        closure = m_closure(system, current, max_states=max_states)
        cancellable = None
        for w in sorted(closure):
            i = _adjacent_repeat(w)
            if i is not None:
                cancellable = w[:i] + w[i + 2 :]
                break
        if cancellable is None:
            canonical = min(closure)
            for w in closure:
                cache.setdefault(w, canonical)
            for w in chain:
                cache.setdefault(w, canonical)
            return canonical
        if cancellable in cache:
            canonical = cache[cancellable]
            for w in chain:
                cache.setdefault(w, canonical)
            return canonical
        chain.append(cancellable)
        current = cancellable


def multiply(system: CoxeterSystem, a: Word, b: Word, max_states: int = DEFAULT_MAX_STATES) -> Word:
    """Canonical form of the concatenation."""
    return reduce_word(system, tuple(a) + tuple(b), max_states=max_states)


def inverse_word(word: Word) -> Word:
    """Generators are involutions, so the inverse is the reversal."""
    return tuple(reversed(word))


def parse_word(system: CoxeterSystem, text: str) -> Word:
    """Whitespace-separated generator names; the single token 'e' is the empty word."""
    tokens = text.split()
    if not tokens or tokens == ["e"]:
        return ()
    return tuple(system.index_of(tok) for tok in tokens)


def format_word(system: CoxeterSystem, word: Word) -> str:
    """Inverse of parse_word; the empty word prints as 'e'."""
    if not word:
        return "e"
    return " ".join(system.name_of(x) for x in word)
