"""Exhaustive oracles that the tests compare the package's shortcuts with.

They enumerate whole element sets, so they are meant for small images only
and are no part of the package.
"""


def is_subgroup(image):
    """Does the image's element set hold the identity and the inverse of
    each element and the product of each pair?"""
    w, elems = image.window, image.elements
    return w.identity in elems and all(
        w.inv(a) in elems and all(w.mul(a, b) in elems for b in elems) for a in elems)
