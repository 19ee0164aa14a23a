SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey
SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey LIMIT 50
SELECT ps_suppkey, ps_partkey, ps_availqty, count(l_partkey) AS n FROM partsupp, lineitem WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey GROUP BY ps_suppkey, ps_partkey, ps_availqty ORDER BY ps_suppkey, ps_partkey
SELECT ps_suppkey, ps_partkey, ps_availqty, sum(l_quantity) AS total FROM partsupp, lineitem WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey AND l_linestatus = 'O' GROUP BY ps_availqty, ps_partkey, ps_suppkey HAVING sum(l_quantity) > ps_availqty ORDER BY ps_partkey
SELECT * FROM r1 FULL OUTER JOIN r2 ON (r1.c5 = r2.c5 AND r1.c4 = r2.c4 AND r1.c3 = r2.c3) FULL OUTER JOIN r3 ON (r3.c1 = r1.c1 AND r3.c4 = r1.c4 AND r3.c5 = r1.c5)
SELECT * FROM r1 FULL OUTER JOIN r2 ON (r1.c5 = r2.c5 AND r1.c4 = r2.c4 AND r1.c3 = r2.c3) FULL OUTER JOIN r3 ON (r3.c1 = r1.c1 AND r3.c4 = r1.c4 AND r3.c5 = r1.c5) ORDER BY r1.c4, r1.c5
SELECT t1.userid, t1.basketid, t1.parentorderid, t1.waveid, t1.childorderid, min(t1.quantity * t1.price) AS ordervalue, sum(t2.quantity * t2.price) AS executedvalue FROM tran t1, tran t2 WHERE t1.userid = t2.userid AND t1.parentorderid = t2.parentorderid AND t1.basketid = t2.basketid AND t1.waveid = t2.waveid AND t1.childorderid = t2.childorderid AND t1.trantype = 'New' AND t2.trantype = 'Executed' GROUP BY t1.userid, t1.basketid, t1.parentorderid, t1.waveid, t1.childorderid
SELECT * FROM basket b, analytics a WHERE b.prodtype = a.prodtype AND b.symbol = a.symbol AND b.exchange = a.exchange
SELECT DISTINCT prodtype, exchange FROM basket ORDER BY prodtype, exchange
SELECT c1.make, c1.year, c1.color, c1.city, c2.breakdowns, r.rating FROM catalog1 c1, catalog2 c2, rating r WHERE c1.city = c2.city AND c1.make = c2.make AND c1.year = c2.year AND c1.color = c2.color AND c1.make = r.make AND c1.year = r.year ORDER BY c1.make, c1.year, c1.color
SELECT k, v FROM events ORDER BY k, v
SELECT v, k FROM events ORDER BY v, k
SELECT k, v FROM events LIMIT 10
SELECT k, v FROM events WHERE k = 123
SELECT k, v FROM other
SELECT k, v FROM events
SELECT k, v FROM t ORDER BY k
SELECT v, k FROM t WHERE v > 50 ORDER BY v, k
SELECT c1.make, c1.year, c1.city, c1.color, c1.sellreason, c2.breakdowns, r.rating FROM catalog1 c1, catalog2 c2, rating r WHERE c1.city = c2.city AND c1.make = c2.make AND c1.year = c2.year AND c1.color = c2.color AND c1.make = r.make AND c1.year = r.year ORDER BY c1.make, c1.year, c1.color, c1.city, c1.sellreason, c2.breakdowns, r.rating
SELECT * FROM t WHERE b = 5
SELECT * FROM t ORDER BY b
SELECT * FROM t, u WHERE t.b = u.b
SELECT b FROM t WHERE b = 5
SELECT t0.k, t0.v0, t1.v1, t2.v2, t3.v3 FROM t0, t1, t2, t3 WHERE t0.k = t1.k AND t1.k = t2.k AND t2.k = t3.k ORDER BY t0.k
SELECT k, v FROM t0 ORDER BY k
SELECT s_id, s_m, a1 FROM sfact, sd1 WHERE s_d1 = k1 ORDER BY s_id
SELECT DISTINCT prodtype, symbol FROM basket
SELECT l_suppkey, l_partkey FROM lineitem ORDER BY l_suppkey, l_partkey LIMIT 100
SELECT l_orderkey, l_partkey FROM lineitem ORDER BY l_orderkey
SELECT l_suppkey, l_partkey, l_quantity FROM lineitem WHERE l_linestatus = 'O'
SELECT l_partkey, l_orderkey FROM lineitem ORDER BY l_partkey, l_orderkey
SELECT k, g FROM big WHERE k > 29950 ORDER BY k
SELECT k, g FROM big WHERE k < 40 ORDER BY k
SELECT k FROM big WHERE g > 500 ORDER BY k
SELECT k, s FROM big WHERE g = 7 LIMIT 120
SELECT k, kg, ks FROM keys, big WHERE kg = g
SELECT k, kg FROM keys, big WHERE ks = s
SELECT k, sk FROM big, small WHERE g = sg
SELECT b1.k, b2.k, kg FROM keys, big b1, big b2 WHERE kg = b1.g AND b1.g = b2.g AND b2.k < 30 AND b1.k > 29000
SELECT s_id, s_m, a1, a2, a3, a4 FROM sfact, sd1, sd2, sd3, sd4 WHERE s_d1 = k1 AND s_d2 = k2 AND s_d3 = k3 AND s_d4 = k4 AND a4 < 5
SELECT k, g, s FROM big WHERE k = 12345
SELECT g FROM big WHERE k = 29999 AND g > 5
SELECT k, kg FROM keys, big WHERE kg = g AND k = 777
SELECT * FROM keys FULL OUTER JOIN big ON (kg = g)
SELECT * FROM big FULL OUTER JOIN keys ON (k = kg)
SELECT g, sum(k) AS total FROM t GROUP BY g ORDER BY g
SELECT k FROM t ORDER BY k
select   K  from T order by k
SELECT k FROM t WHERE g = 1
SELECT k FROM t WHERE g = 2
SELECT k FROM t
SELECT g FROM t
SELECT f FROM t
SELECT t.k, s.h FROM t, s WHERE t.k = s.k AND t.g = 3 ORDER BY t.k LIMIT 20
SELECT t.k, s.h FROM t, s WHERE t.k = s.k AND t.g = ? ORDER BY t.k
SELECT k FROM t WHERE g = ? ORDER BY k
SELECT k FROM t WHERE g = ?
SELECT y FROM d WHERE x = ?
SELECT y FROM d WHERE x = 2
SELECT x FROM d WHERE y = ?
SELECT ? FROM t
SELECT k + ? FROM t
SELECT g, sum(k + ?) AS s FROM t GROUP BY g
SELECT g, sum(k) AS s FROM t GROUP BY g HAVING sum(k) > ? ORDER BY g
SELECT k FROM t ORDER BY k DESC
SELECT l_orderkey, l_quantity FROM lineitem WHERE l_suppkey = ? ORDER BY l_orderkey, l_quantity
SELECT id, name FROM people ORDER BY id
SELECT x FROM missing
SELECT nope FROM events
SELECT k FROM events WHERE events.k = other.k
SELECT k FROM
SELECT FROM
SELECT b, c FROM t ORDER BY b
SELECT ps_suppkey, ps_partkey, ps_availqty, sum(l_quantity) AS open_qty FROM partsupp, lineitem WHERE ps_suppkey = l_suppkey AND ps_partkey = l_partkey AND l_linestatus = 'O' GROUP BY ps_availqty, ps_partkey, ps_suppkey HAVING sum(l_quantity) > ps_availqty ORDER BY ps_partkey
SELECT a, c FROM points WHERE b < 750000 AND c < 65
SELECT * FROM dim, fact WHERE d_k = f_d
SELECT * FROM r1, r2, r3, r4 WHERE r1.a = r2.a AND r1.d = r2.d AND r1.h = r2.h AND r1.a = r3.a AND r1.e = r3.e AND r1.h = r3.h AND r1.a = r4.a AND r1.b = r4.b AND r1.c = r4.c AND r1.h = r4.h
SELECT a, b FROM t WHERE x = 'O' AND y >= 4.5
select
SELECT  a FROM t WHERE x = ?  AND y = 'O'
select a from t where x=? and y='O'
select a from t where x = ? and y = 'O'
SELECT * cannot be combined with GROUP BY
SELECT a, b FROM t1 ORDER BY a
SELECT * FROM t1, t2 WHERE t1.a = t2.a AND b > 3
SELECT b, sum(a) AS total FROM t1 GROUP BY b HAVING sum(a) > 100 ORDER BY b
SELECT * FROM t1, t2
SELECT zz FROM t1
SELECT a FROM t1, t2 WHERE t1.a = t2.a
SELECT * FROM t1 FULL OUTER JOIN t2 ON (t1.a = t2.a AND t1.b = t2.d)
SELECT ps_suppkey, ps_partkey, ps_availqty, sum(l_quantity) AS total FROM partsupp, lineitem WHERE ps_suppkey=l_suppkey AND ps_partkey=l_partkey AND l_linestatus='O' GROUP BY ps_availqty, ps_partkey, ps_suppkey HAVING total > ps_availqty ORDER BY ps_partkey
SELECT * FROM r1 FULL OUTER JOIN r2 ON (r1.c5=r2.c5 AND r1.c4=r2.c4) FULL OUTER JOIN r3 ON (r3.c1=r1.c1)
SELECT t1.quantity * t1.price AS ordervalue, sum(t2.quantity * t2.price) AS ev FROM tran t1, tran t2 WHERE t1.userid = t2.userid GROUP BY t1.userid
SELECT count(*) FROM t GROUP BY g
SELECT
SELECT a FROM
SELECT a FROM t WHERE
SELECT a FROM t extra garbage here now
SELECT a FROM t ORDER BY a DESC, b ASC
SELECT a FROM t ORDER BY a ASC, b ASC
SELECT a FROM t WHERE a = ? AND b > ? ORDER BY a
SELECT 1
SELECT a FROM t
SELECT a, b FROM t ORDER BY a, b
SELECT a FROM t ORDER BY a
SELECT l_orderkey, l_quantity FROM lineitem WHERE l_suppkey = 3 ORDER BY l_orderkey, l_quantity
SELECT nope FROM t ORDER BY nope
SELECT a FROM missing ORDER BY a
SELECT ? FROM
SELECT a FROM t WHERE a = ?
SELECT b FROM t WHERE a = ?
SELECT a, b FROM t WHERE a = ?
SELECT a, b FROM t ORDER BY a
SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey = ? ORDER BY l_orderkey, l_quantity
SELECT l_suppkey, l_partkey, l_quantity FROM lineitem WHERE l_suppkey = ? ORDER BY l_suppkey, l_partkey
SELECT l_orderkey, l_suppkey, l_partkey, l_quantity FROM lineitem
SELECT * FROM ch0, ch1, ch2, ch3 WHERE r0 = l1 AND r1 = l2 AND r2 = l3
SELECT * FROM hub, sat1, sat2, sat3 WHERE h1 = k1 AND h2 = k2 AND h3 = k3
SELECT * FROM ch0, ch1, ch2, ch3, ch4, ch5, ch6, ch7 WHERE r0 = l1 AND r1 = l2 AND r2 = l3 AND r3 = l4 AND r4 = l5 AND r5 = l6 AND r6 = l7
SELECT * FROM hub, sat1, sat2, sat3, sat4, sat5, sat6, sat7 WHERE h1 = k1 AND h2 = k2 AND h3 = k3 AND h4 = k4 AND h5 = k5 AND h6 = k6 AND h7 = k7
SELECT * FROM ch0, ch1, ch2, ch3, ch4, ch5, ch6, ch7, ch8, ch9, ch10, ch11 WHERE r0 = l1 AND r1 = l2 AND r2 = l3 AND r3 = l4 AND r4 = l5 AND r5 = l6 AND r6 = l7 AND r7 = l8 AND r8 = l9 AND r9 = l10 AND r10 = l11
SELECT * FROM hub, sat1, sat2, sat3, sat4, sat5, sat6, sat7, sat8, sat9, sat10, sat11 WHERE h1 = k1 AND h2 = k2 AND h3 = k3 AND h4 = k4 AND h5 = k5 AND h6 = k6 AND h7 = k7 AND h8 = k8 AND h9 = k9 AND h10 = k10 AND h11 = k11
SELECT * FROM ch0, ch1, ch2, ch3, ch4, ch5, ch6, ch7, ch8, ch9, ch10, ch11, ch12, ch13, ch14, ch15 WHERE r0 = l1 AND r1 = l2 AND r2 = l3 AND r3 = l4 AND r4 = l5 AND r5 = l6 AND r6 = l7 AND r7 = l8 AND r8 = l9 AND r9 = l10 AND r10 = l11 AND r11 = l12 AND r12 = l13 AND r13 = l14 AND r14 = l15
SELECT * FROM hub, sat1, sat2, sat3, sat4, sat5, sat6, sat7, sat8, sat9, sat10, sat11, sat12, sat13, sat14, sat15 WHERE h1 = k1 AND h2 = k2 AND h3 = k3 AND h4 = k4 AND h5 = k5 AND h6 = k6 AND h7 = k7 AND h8 = k8 AND h9 = k9 AND h10 = k10 AND h11 = k11 AND h12 = k12 AND h13 = k13 AND h14 = k14 AND h15 = k15
SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey = 0 ORDER BY l_orderkey, l_quantity
SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey = 7 ORDER BY l_orderkey, l_quantity
SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey = 4242 ORDER BY l_orderkey, l_quantity
SELECT l_orderkey, l_quantity FROM lineitem WHERE l_orderkey = 59999 ORDER BY l_orderkey, l_quantity
