package repro

import org.apache.spark.sql.functions._

/** Tests of the DuckDB oracle itself: it must catch real result differences,
  * not just run.
  */
class OracleSpec extends SparkSpec {

  test("aggregation query matches DuckDB (oracle round trip)") {
    val s = spark
    import s.implicits._
    val df = Seq(("a", 1.5), ("b", 2.0), ("a", 3.25), ("c", 0.5), ("b", 4.0)).toDF("k", "q")
    val q = df.groupBy("k")
      .agg(count(lit(1)) as "cnt", round(sum(col("q")), 2) as "qty")
      .select(col("k"), col("cnt"), col("qty"))
    Oracle.assertEquivalent(q,
      """SELECT k, COUNT(*) AS cnt, ROUND(SUM(CAST(q AS DOUBLE)), 2) AS qty
         FROM t GROUP BY k""",
      "t" -> df)
  }

  test("join query matches DuckDB (oracle round trip)") {
    val s = spark
    import s.implicits._
    val orders = Seq((1L, "O"), (2L, "F"), (3L, "O")).toDF("o_key", "status")
    val items  = Seq(1L, 1L, 2L, 3L, 3L, 3L).toDF("l_key")
    val q = items.join(orders, col("l_key") === col("o_key"))
      .groupBy("status").agg(count(lit(1)) as "cnt")
      .select(col("status"), col("cnt"))
    Oracle.assertEquivalent(q,
      """SELECT status, COUNT(*) AS cnt
         FROM items JOIN orders ON CAST(l_key AS BIGINT) = CAST(o_key AS BIGINT)
         GROUP BY status""",
      "items" -> items, "orders" -> orders)
  }

  test("the oracle rejects wrong results") {
    val s = spark
    import s.implicits._
    val df = Seq(("a", 1L)).toDF("k", "n")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df, "SELECT 'a' AS k, 2 AS n")
    }
  }

  test("the oracle rejects mismatched column sets") {
    val s = spark
    import s.implicits._
    val df = Seq(("a", 1L)).toDF("k", "wrong")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df, "SELECT 'a' AS k, 1 AS n")
    }
  }
}
