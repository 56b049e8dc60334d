"""Cold-start threshold estimation for cluster-based collaborative filtering.

The package fits k-means over users' full rating histories, replays each
user's ratings as growing prefixes against the frozen centroids, and locates
the prefix length where cluster assignment stabilizes: the number of ratings
after which a new user stops being a cold-start case.

The package root exports nothing: import each name from its module, as in
``from coldstart import experiment`` or ``from coldstart.kmeans import fit``.
"""
