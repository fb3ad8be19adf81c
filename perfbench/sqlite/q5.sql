-- TPC-H Q5 (local supplier volume).  CROSS JOIN fixes sqlite's join order;
-- left to itself, sqlite picks an order that takes seconds at SF 0.05.
SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM region CROSS JOIN nation CROSS JOIN customer CROSS JOIN orders
     CROSS JOIN lineitem CROSS JOIN supplier
WHERE c_custkey = o_custkey
  AND l_orderkey = o_orderkey
  AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey
  AND s_nationkey = n_nationkey
  AND n_regionkey = r_regionkey
  AND r_name = 'ASIA'
  AND o_orderdate >= '1994-01-01'
  AND o_orderdate < '1995-01-01'
GROUP BY n_name
ORDER BY revenue DESC
