#ifndef GAPPLY_XML_TAGGER_H_
#define GAPPLY_XML_TAGGER_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/common/value.h"
#include "src/xml/view.h"

namespace gapply::xml {

/// \brief Constant-space tagger (paper §2): consumes the sorted-outer-union
/// row stream one tuple at a time and emits XML text.
///
/// Space is bounded by the depth of the view tree (the stack of currently
/// open elements) plus one output chunk, never by the document size —
/// which is exactly why the input must arrive clustered by element (the
/// paper's reason for the ORDER BY / GApply clustering guarantee).
///
/// Text is written into one growable buffer: every tag line, with its
/// indent, is precomputed per view node, and values are rendered and
/// escaped in place. The buffer goes to the sink in chunks of at least
/// `kChunkBytes` and once more at `Finish`.
class Tagger {
 public:
  static constexpr size_t kChunkBytes = 64 * 1024;

  /// `sink` receives the document in consecutive chunks.
  Tagger(const SouqPlan& plan, std::function<void(const std::string&)> sink);

  /// Starts the document (<root> tag).
  void Begin(const std::string& root_element);

  /// Consumes one clustered row.
  Status Feed(const Row& row);

  /// Closes all open elements and the root.
  Status Finish();

 private:
  /// Everything Feed writes for a node that does not depend on the row.
  struct NodeText {
    std::vector<int> chain;  // ancestors top-down, ending with the node
    std::string open;        // indented "<name>\n"
    std::string close;       // indented "</name>\n"
    std::vector<std::string> payload_open;   // indented "<payload>"
    std::vector<std::string> payload_close;  // "</payload>\n"
  };
  struct OpenElement {
    int node_id = -1;
    std::vector<Value> keys;
  };

  void CloseTo(size_t keep);
  void Flush();

  std::vector<SouqNodeMeta> nodes_;
  std::vector<NodeText> text_;  // by node id
  std::function<void(const std::string&)> sink_;
  std::string buf_;
  // open_[0, depth_) are the open elements; entries past depth_ keep their
  // key vectors' storage for reuse.
  std::vector<OpenElement> open_;
  size_t depth_ = 0;
  std::string root_element_;
  bool begun_ = false;
};

/// Escapes &, <, > for XML text content.
std::string EscapeXml(const std::string& text);

/// Appends `text` to `out`, escaped as EscapeXml does.
void AppendEscapedXml(std::string_view text, std::string* out);

}  // namespace gapply::xml

#endif  // GAPPLY_XML_TAGGER_H_
