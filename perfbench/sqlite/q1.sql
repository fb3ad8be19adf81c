-- TPC-H Q1 (pricing summary report); the engine's DATE '1998-12-01' - INTERVAL '90' DAY is 1998-09-02.
SELECT l_returnflag, l_linestatus,
       SUM(l_quantity),
       SUM(l_extendedprice),
       SUM(l_extendedprice * (1 - l_discount)),
       SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)),
       AVG(l_quantity),
       AVG(l_extendedprice),
       AVG(l_discount),
       COUNT(*)
FROM lineitem
WHERE l_shipdate <= '1998-09-02'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
