package repro.tricbench

import repro.core.TricEngine
import repro.datasets.{BioGen, SnbGen}
import repro.engine.ContinuousEngine
import repro.graph.{Edge, GraphStream}
import repro.inv.InvEngine
import repro.query.{QueryConfig, QueryGenerator, QueryPattern}

import scala.util.Random

/** The generated inputs of one workload: a graph stream and the query
  * database Q_DB, in the order Q_DB is indexed.
  */
final case class Inputs(stream: Vector[Edge], queries: Vector[QueryPattern], cfg: QueryConfig,
                        streamSeed: Long, querySeed: Long, orderSeed: Long) {
  /** round(σ·|Q_DB|): how many queries the stream must satisfy. */
  def expectedSatisfied: Int = math.round(cfg.n * cfg.selectivity).toInt
}

object Workloads {

  /** Stream length and Q_DB configuration of each dataset. */
  private def spec(dataset: String, querySeed: Long): (Int, QueryConfig) = dataset match {
    case "snb" => (3000, QueryConfig(n = 1000, avgLen = 5, selectivity = 0.10, overlap = 0.35, seed = querySeed))
    case "bio" => (600, QueryConfig(n = 100, selectivity = 0.25, seed = querySeed))
    case other => throw new IllegalArgumentException(s"unknown dataset $other")
  }

  /** The generators' own default seeds. */
  def defaultStreamSeed(dataset: String): Long = if (dataset == "bio") 13L else 7L
  val defaultQuerySeed: Long = 42L

  /** Generate a dataset's inputs. The stream and Q_DB come from the generator
    * seeds; `orderSeed` shuffles the order in which Q_DB is indexed and
    * renumbers the query ids, which changes the program's inputs but not the
    * work they ask for.
    */
  def inputs(dataset: String, streamSeed: Long, querySeed: Long, orderSeed: Long): Inputs = {
    val (nEdges, cfg) = spec(dataset, querySeed)
    val stream = dataset match {
      case "snb" => SnbGen.stream(nEdges, streamSeed)
      case "bio" => BioGen.stream(nEdges, streamSeed)
    }
    val generated = QueryGenerator.generate(new GraphStream.Adjacency(stream), cfg)
    val queries = new Random(orderSeed).shuffle(generated).zipWithIndex.map { case (q, id) => QueryPattern(id, q.edges) }
    Inputs(stream, queries, cfg, streamSeed, querySeed, orderSeed)
  }

  /** The measured engines, by metric prefix. */
  val engines: Map[String, () => ContinuousEngine] = Map(
    "tric_plus" -> (() => new TricEngine(caching = true)),
    "tric"      -> (() => new TricEngine(caching = false)),
    "inc_plus"  -> (() => new InvEngine(incremental = true, caching = true)),
  )
}
