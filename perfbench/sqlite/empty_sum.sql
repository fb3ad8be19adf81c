-- An aggregate over an empty selection: l_quantity is drawn from 1..50,
-- so no row qualifies and SQL's SUM answers NULL.
SELECT SUM(l_extendedprice)
FROM lineitem
WHERE l_quantity > 50
