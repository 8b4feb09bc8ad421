#include <algorithm>
#include <cctype>

#include "common/logging.h"
#include "common/spec_reader.h"
#include "models/model_zoo.h"

namespace g10 {

const char*
modelName(ModelKind kind)
{
    switch (kind) {
      case ModelKind::BertBase: return "BERT_Base";
      case ModelKind::ViT: return "ViT";
      case ModelKind::Inceptionv3: return "Inceptionv3";
      case ModelKind::ResNet152: return "ResNet152";
      case ModelKind::SENet154: return "SENet154";
    }
    return "?";
}

bool
tryModelKindFromName(const std::string& name, ModelKind* out)
{
    std::string lower = name;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    if (lower == "bert" || lower == "bert_base" || lower == "bertbase")
        *out = ModelKind::BertBase;
    else if (lower == "vit")
        *out = ModelKind::ViT;
    else if (lower == "inceptionv3" || lower == "inception")
        *out = ModelKind::Inceptionv3;
    else if (lower == "resnet152" || lower == "resnet")
        *out = ModelKind::ResNet152;
    else if (lower == "senet154" || lower == "senet")
        *out = ModelKind::SENet154;
    else
        return false;
    return true;
}

ModelKind
modelKindFromName(const std::string& name)
{
    return modelKindAt(SpecEntry{}, name);
}

ModelKind
modelKindAt(const SpecEntry& at, const std::string& name)
{
    ModelKind kind;
    if (!tryModelKindFromName(name, &kind))
        at.fail("unknown model '%s' (expected BERT/ViT/Inceptionv3/"
                "ResNet152/SENet154)", name.c_str());
    return kind;
}

std::vector<ModelKind>
allModels()
{
    return {ModelKind::BertBase, ModelKind::ViT, ModelKind::Inceptionv3,
            ModelKind::ResNet152, ModelKind::SENet154};
}

int
paperBatchSize(ModelKind kind)
{
    switch (kind) {
      case ModelKind::BertBase: return 256;
      case ModelKind::ViT: return 1280;
      case ModelKind::Inceptionv3: return 1536;
      case ModelKind::ResNet152: return 1280;
      case ModelKind::SENet154: return 1024;
    }
    return 256;
}

TimeNs
paperIdealPerSampleNs(ModelKind kind)
{
    // Implied by the ideal curves of the paper's Fig. 15 (samples/sec at
    // the largest batch where the ideal is flat).
    switch (kind) {
      case ModelKind::BertBase: return static_cast<TimeNs>(18.2 * MSEC);
      case ModelKind::ViT: return static_cast<TimeNs>(6.0 * MSEC);
      case ModelKind::Inceptionv3:
        return static_cast<TimeNs>(30.0 * MSEC);
      case ModelKind::ResNet152: return static_cast<TimeNs>(83.0 * MSEC);
      case ModelKind::SENet154: return static_cast<TimeNs>(133.0 * MSEC);
    }
    return 10 * MSEC;
}

namespace {

/**
 * Pin the trace's total duration to the paper's profiled scale: the
 * roofline gives faithful relative kernel costs, and this multiplies all
 * of them so the ideal iteration matches paperIdealPerSampleNs().
 */
void
calibrate(KernelTrace& trace, ModelKind kind)
{
    TimeNs target = paperIdealPerSampleNs(kind) *
                    static_cast<TimeNs>(trace.batchSize());
    TimeNs modeled = trace.totalComputeNs();
    if (modeled <= 0)
        return;
    trace.scaleDurations(static_cast<double>(target) /
                         static_cast<double>(modeled));
}

KernelTrace
buildModelImpl(ModelKind kind, int batch_size,
               const CostModel& cost_model, Bytes ws_cap)
{
    if (batch_size < 1)
        fatal("batch size must be >= 1 (got %d)", batch_size);
    switch (kind) {
      case ModelKind::BertBase:
        return buildBertBase(batch_size, cost_model);
      case ModelKind::ViT:
        return buildViT(batch_size, cost_model);
      case ModelKind::Inceptionv3:
        return buildInceptionv3(batch_size, cost_model, ws_cap);
      case ModelKind::ResNet152:
        return buildResNet152(batch_size, cost_model, ws_cap);
      case ModelKind::SENet154:
        return buildSENet154(batch_size, cost_model, ws_cap);
    }
    panic("unreachable model kind");
}

}  // namespace

KernelTrace
buildModel(ModelKind kind, int batch_size, const CostModel& cost_model)
{
    KernelTrace trace =
        buildModelImpl(kind, batch_size, cost_model, 4 * GiB);
    calibrate(trace, kind);
    return trace;
}

KernelTrace
buildModelScaled(ModelKind kind, int batch_size, unsigned scale_down,
                 const CostModel& cost_model)
{
    if (scale_down <= 1)
        return buildModel(kind, batch_size, cost_model);
    int scaled = std::max(1, batch_size / static_cast<int>(scale_down));
    Bytes ws_cap = std::max<Bytes>(4 * GiB / scale_down, 16 * MiB);
    KernelTrace trace =
        buildModelImpl(kind, scaled, cost_model, ws_cap);
    calibrate(trace, kind);
    return trace;
}

}  // namespace g10
